// Shared harness of the two maintenance benches: churn_maintenance (the
// incremental engine) and msg_maintenance (the protocol engine).
//
// Both record the same row schema into the same document shape: one
// host/build fingerprint, a named set of pass/fail gates and every run
// as one row. The harness owns the per-run observability session, the
// repeat rule (median-of-k by wall time, all repeats on one state hash),
// the verify stage (a list of configurations that must land on one state
// hash) and the gates, written as pure functions over rows so the gate
// tests can trip them on hand-made rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "exp/churn.hpp"
#include "obs/session.hpp"

namespace manet::bench {

/// True in a TSan or ASan build, detected at compile time. Sanitizer
/// shadow memory inflates RSS many times over, so RSS gates are armed
/// only where this is false.
extern const bool kSanitized;

/// One run of either engine. The shared fields are the schema; numbers
/// only one engine has go into `stats` (the row's "engine_stats"), the
/// printed ones first.
struct Row {
  std::string section{};
  std::string engine{};  ///< "incr" or "proto"
  std::string model{};
  std::string mode{};
  std::size_t n = 0;
  double degree = 0.0;
  double movers = 0.0;  ///< nodes moving per tick
  std::size_t threads = 0;
  std::size_t pipeline_depth = 1;
  std::size_t ticks = 0;
  std::size_t repeat = 1;  ///< runs of this configuration
  bool median = true;      ///< the run published for this configuration
  double wall_ms_per_tick = 0.0;
  std::size_t peak_rss_bytes = 0;
  std::uint64_t state_hash = 0;
  bool connected = false;
  std::size_t connect_attempts_used = 0;
  std::vector<std::pair<const char*, double>> stats{};  ///< literal names
  std::string metrics = "{}";   ///< registry snapshot (JSON)
  std::string deterministic{};  ///< its deterministic() part

  double rss_bytes_per_node() const;
  std::string to_json() const;
};

/// A row from the ChurnConfig both engines run and the result fields
/// both engines report.
template <typename Result>
Row make_row(const std::string& engine, const exp::ChurnConfig& c,
             const Result& r) {
  const bool two_and_half = c.mode == core::CoverageMode::kTwoPointFiveHop;
  return {.engine = engine, .model = exp::model_name(c.model),
          .mode = two_and_half ? "2.5-hop" : "3-hop", .n = c.nodes,
          .degree = c.degree,
          .movers = c.move_fraction * static_cast<double>(c.nodes),
          .threads = c.threads, .pipeline_depth = c.pipeline_depth,
          .ticks = r.ticks, .wall_ms_per_tick = r.wall_ms_per_tick,
          .peak_rss_bytes = r.peak_rss_bytes, .state_hash = r.state_hash,
          .connected = r.connected,
          .connect_attempts_used = r.connect_attempts_used};
}

// ---- Gates (pure) -------------------------------------------------------

/// Every row lands on the first row's state hash and, with `metrics`,
/// on its deterministic metrics snapshot.
bool one_hash(const std::vector<Row>& rows, bool metrics);
/// Index of the median row by wall time (the upper one for even counts).
std::size_t median_by_wall(const std::vector<Row>& rows);
/// Peak RSS at most `budget` bytes per node.
bool rss_within(const Row& row, double budget);
/// Rows in ascending n: bytes per node never grows by more than `factor`
/// from one row to the next.
bool rss_no_growth(const std::vector<Row>& rows, double factor = 1.10);
/// Rows in ascending n: wall per tick grows strictly slower than n from
/// one row to the next.
bool sublinear_wall(const std::vector<Row>& rows);
/// Positive rates whose max/min ratio is at most `ratio`.
bool flat(const std::vector<double>& rates, double ratio = 1.5);

// ---- Harness ------------------------------------------------------------

/// Records one program's rows and gates and writes its document.
class Harness {
 public:
  /// Runs the engine observed by the given session and returns its row;
  /// the harness fills section, repeat, median and the metrics blocks.
  using Run = std::function<Row(obs::Session&)>;

  /// Reads --seed (default 2003), --repeat (default 1), --trace-out and
  /// --journal-out (rewritten by every run, so they hold the last run's).
  /// Each printed row ends with its first `labels.size()` engine numbers.
  Harness(std::string bench, const Flags& flags,
          std::vector<std::string> labels);

  std::uint64_t seed() const { return seed_; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::map<std::string, bool>& gates() const { return gates_; }

  /// One run under a fresh observability session, printed as one line.
  Row record(const std::string& section, const Run& run);
  /// Records every run and gates "one_hash" on them landing on the first
  /// one's state hash (and, with `metrics`, its deterministic metrics).
  std::vector<Row> verify(const std::string& section,
                          const std::vector<Run>& runs, bool metrics);
  /// --repeat runs of one configuration, all recorded and verified onto
  /// one state hash. Returns the median by wall time: the run the
  /// document publishes and the gates read.
  Row repeated(const std::string& section, const Run& run);

  /// ANDs `ok` into the named gate.
  void gate(const std::string& name, bool ok) {
    gates_.try_emplace(name, true).first->second &= ok;
  }
  /// gate(), armed only outside sanitizer builds.
  void rss_gate(const std::string& name, bool ok) {
    if (!kSanitized) gate(name, ok);
  }

  /// Prints the gates, writes the document (with the host/build
  /// fingerprint) to `path` and returns the exit code: 0 when every gate
  /// passed, 1 otherwise.
  int finish(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::string> labels_;
  std::string last_section_;
  std::uint64_t seed_;
  std::size_t repeat_;
  std::string trace_out_;
  std::string journal_out_;
  std::vector<Row> rows_;
  std::map<std::string, bool> gates_;
};

}  // namespace manet::bench
