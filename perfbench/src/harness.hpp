// Measurement plumbing of the benchmark, kept free of any workload so the
// self-tests can pin it: percentiles with the tail-sample rule, the span
// recorder and self time, probe reach accounting, the host fingerprint,
// and a small ordered JSON writer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Percentiles -------------------------------------------------------

/// Samples needed beyond a percentile before it may be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile (q in (0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// True when the q-percentile of n samples has at least kTailSamples
/// samples beyond it — the rule every reported tail percentile obeys.
bool tail_reportable(std::size_t n, double q);

/// Smallest sample count for which `q` is reportable.
std::size_t min_samples_for(double q);

// ---- Clocks ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (all threads), in milliseconds.
double process_cpu_ms();

// ---- Spans -------------------------------------------------------------

/// One recorded span: a public call into a layer, as seen by the
/// benchmark. Times are nanoseconds since the tracer's epoch.
struct Span {
  const char* name = "";  ///< string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t tick = 0;    ///< tick id the span belongs to (0 = none)
};

/// In-memory span recorder. Disabled tracers record nothing and cost a
/// branch per scope; spans are written out once, after the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t tick);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Writes the spans as a Chrome trace-event JSON file (one complete
  /// "X" event per span, with parent, tick and self time as args).
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::uint64_t tick);
  void close(std::int32_t index);
  std::uint64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of every span in ms: its duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once; parts of a child outside the parent are ignored).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

// ---- Probe reach -------------------------------------------------------

/// How a broadcast covered its source's connected component.
struct Reach {
  std::size_t component = 0;  ///< nodes in the source's component
  std::size_t reached = 0;    ///< of those, nodes that got the packet
  bool complete() const { return component > 0 && reached == component; }
  double ratio() const {
    return component == 0 ? 0.0
                          : static_cast<double>(reached) /
                                static_cast<double>(component);
  }
};

/// Counts `received` flags inside `source`'s component (labels from
/// graph::components).
Reach count_reach(const std::vector<char>& received,
                  const std::vector<std::uint32_t>& component_of,
                  std::uint32_t source);

// ---- Failure accounting ------------------------------------------------

/// Attempted and failed operations of one run. A failed end-of-run
/// check fails every operation of the run.
struct OpCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool end_check_ok = true;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  std::size_t failed_total() const { return end_check_ok ? failed : attempted; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed_total()) /
                                static_cast<double>(attempted);
  }
  bool correct() const { return attempted > 0 && failed_total() == 0; }
};

// ---- Host fingerprint --------------------------------------------------

struct HostFingerprint {
  long nproc = 0;
  unsigned hardware_concurrency = 0;
  std::string cpu_model;
};

HostFingerprint host_fingerprint();

// ---- JSON --------------------------------------------------------------

/// Minimal ordered JSON object builder (keys appear in insertion order).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_quote(const std::string& s);
/// Full-precision number formatting (non-finite values become null).
std::string json_number(double v);

}  // namespace perfbench
