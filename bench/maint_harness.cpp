#include "maint_harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/assert.hpp"

// A sanitizer build is recognised from the compiler's own macros (GCC)
// or __has_feature (Clang), so no build flag can disagree with it.
#if defined(__has_feature)
#define MAINT_HAS_FEATURE(x) __has_feature(x)
#else
#define MAINT_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || MAINT_HAS_FEATURE(thread_sanitizer)
#define MAINT_SANITIZER "thread"
#elif defined(__SANITIZE_ADDRESS__) || MAINT_HAS_FEATURE(address_sanitizer)
#define MAINT_SANITIZER "address"
#else
#define MAINT_SANITIZER "none"
#endif

namespace manet::bench {

const bool kSanitized = std::string_view(MAINT_SANITIZER) != "none";

namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Shortest round-trip form; null when not finite.
std::string num(double v) {
  char buf[32];
  return std::isfinite(v)
             ? std::string(buf, std::to_chars(buf, buf + 32, v).ptr)
             : "null";
}

std::string flag(bool v) { return v ? "true" : "false"; }

/// A JSON object of encoded values in the given order: one line, or one
/// field per line after `indent` when it is given.
std::string object(const Fields& fields, const std::string& indent = "") {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i)
    out += (i > 0 ? "," : "") + (indent.empty() && i > 0 ? " " : indent) +
           quote(fields[i].first) + ": " + fields[i].second;
  return out + (indent.empty() ? "}" : "\n}");
}

}  // namespace

double Row::rss_bytes_per_node() const {
  return n == 0 ? 0.0
                : static_cast<double>(peak_rss_bytes) / static_cast<double>(n);
}

std::string Row::to_json() const {
  Fields engine_stats;
  for (const auto& [key, value] : stats)
    engine_stats.emplace_back(key, num(value));
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(state_hash));
  return object(
      {{"section", quote(section)}, {"engine", quote(engine)},
       {"model", quote(model)}, {"mode", quote(mode)}, {"n", u(n)},
       {"degree", num(degree)}, {"movers", num(movers)},
       {"threads", u(threads)}, {"pipeline_depth", u(pipeline_depth)},
       {"ticks", u(ticks)}, {"repeat", u(repeat)}, {"median", flag(median)},
       {"wall_ms_per_tick", num(wall_ms_per_tick)},
       {"peak_rss_bytes", u(peak_rss_bytes)},
       {"rss_bytes_per_node", num(rss_bytes_per_node())},
       {"state_hash", quote(hex)},
       {"connected", flag(connected)},
       {"connect_attempts_used", u(connect_attempts_used)},
       {"engine_stats", object(engine_stats)}, {"metrics", metrics}});
}

bool one_hash(const std::vector<Row>& rows, bool metrics) {
  return std::all_of(rows.begin(), rows.end(), [&](const Row& r) {
    return r.state_hash == rows.front().state_hash &&
           (!metrics || r.deterministic == rows.front().deterministic);
  });
}

std::size_t median_by_wall(const std::vector<Row>& rows) {
  MANET_REQUIRE(!rows.empty(), "median of no rows");
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return rows[a].wall_ms_per_tick < rows[b].wall_ms_per_tick;
  });
  return order[order.size() / 2];
}

bool rss_within(const Row& row, double budget) {
  return row.rss_bytes_per_node() <= budget;
}

bool rss_no_growth(const std::vector<Row>& rows, double factor) {
  for (std::size_t i = 1; i < rows.size(); ++i)
    if (rows[i].rss_bytes_per_node() >
        rows[i - 1].rss_bytes_per_node() * factor)
      return false;
  return true;
}

bool sublinear_wall(const std::vector<Row>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double w0 = rows[i - 1].wall_ms_per_tick;
    const double w_ratio = w0 > 0.0 ? rows[i].wall_ms_per_tick / w0 : 0.0;
    if (!(w_ratio < static_cast<double>(rows[i].n) /
                        static_cast<double>(rows[i - 1].n)))
      return false;
  }
  return true;
}

bool flat(const std::vector<double>& rates, double ratio) {
  if (rates.empty()) return false;
  const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  return *lo > 0.0 && *hi / *lo <= ratio;
}

Harness::Harness(std::string bench, const Flags& flags,
                 std::vector<std::string> labels)
    : bench_(std::move(bench)),
      labels_(std::move(labels)),
      seed_(flags.get_count("seed", 2003)),
      repeat_(std::max<std::size_t>(1, flags.get_count("repeat", 1))),
      trace_out_(flags.get("trace-out", "")),
      journal_out_(flags.get("journal-out", "")) {}

Row Harness::record(const std::string& section, const Run& run) {
  obs::Session session;
  Row row = run(session);
  row.section = section;
  const obs::MetricsSnapshot snap = session.registry.snapshot();
  row.metrics = snap.to_json();
  row.deterministic = snap.deterministic().to_json();
  if (!trace_out_.empty())
    session.trace.write_chrome_trace_file(trace_out_, &session.journal);
  if (!journal_out_.empty()) session.journal.write_jsonl_file(journal_out_);
  if (row.section != last_section_) {
    std::printf("\n[%s]\n%-9s %-7s %8s %4s %3s %3s %9s %6s  %-16s",
                row.section.c_str(), "model", "mode", "n", "d", "thr", "dep",
                "wall_ms", "rss_Bn", "state_hash");
    for (const std::string& label : labels_)
      std::printf(" %8s", label.c_str());
    std::puts("");
  }
  last_section_ = row.section;
  std::printf("%-9s %-7s %8zu %4g %3zu %3zu %9.3f %6.0f  %016llx",
              row.model.c_str(), row.mode.c_str(), row.n, row.degree,
              row.threads, row.pipeline_depth, row.wall_ms_per_tick,
              row.rss_bytes_per_node(),
              static_cast<unsigned long long>(row.state_hash));
  for (std::size_t i = 0; i < labels_.size(); ++i)
    std::printf(" %8.4g", row.stats.at(i).second);
  // Rates measured on a fragmented network are not comparable with
  // connected rows: the line says so instead of passing silently.
  std::puts(row.connected ? "" : " disconnected");
  rows_.push_back(row);
  return row;
}

std::vector<Row> Harness::verify(const std::string& section,
                                 const std::vector<Run>& runs, bool metrics) {
  std::vector<Row> done;
  for (const Run& run : runs) done.push_back(record(section, run));
  gate("one_hash", one_hash(done, metrics));
  return done;
}

Row Harness::repeated(const std::string& section, const Run& run) {
  const std::size_t first = rows_.size();
  const std::vector<Row> runs =
      verify(section, std::vector<Run>(repeat_, run), false);
  const std::size_t mid = first + median_by_wall(runs);
  for (std::size_t i = first; i < rows_.size(); ++i) {
    rows_[i].repeat = repeat_;
    rows_[i].median = i == mid;
  }
  return rows_[mid];
}

int Harness::finish(const std::string& path) const {
  Fields gates;
  bool all = true;
  for (const auto& [name, ok] : gates_) {
    gates.emplace_back(name, flag(ok));
    all = all && ok;
    std::printf("gate %-14s %s\n", name.c_str(), ok ? "passed" : "FAILED");
  }
  std::string rows;
  for (const Row& r : rows_)
    rows += (rows.empty() ? "\n    " : ",\n    ") + r.to_json();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      const auto start = line.find_first_not_of(" \t", line.find(':') + 1);
      if (start != line.npos) cpu_model = line.substr(start);
      break;
    }
  // throttled: one hardware thread, so threaded rows measured scheduling
  // overhead, not parallel speedup.
  const std::string doc = object(
      {{"bench", quote(bench_)}, {"seed", std::to_string(seed_)},
       {"host_nproc", std::to_string(nproc)},
       {"host_hw_concurrency", std::to_string(hw)},
       {"host_cpu_model", quote(cpu_model)},
       {"build_type", quote(MANETCAST_BUILD_TYPE)},
       {"build_compiler", quote(MANETCAST_COMPILER)},
       {"build_sanitizer", quote(MAINT_SANITIZER)},
       {"throttled", flag(nproc <= 1 || hw <= 1)},
       {"rss_gated", flag(!kSanitized)}, {"gates", object(gates)},
       {"rows", "[" + rows + "\n  ]"}},
      "\n  ");
  std::ofstream(path) << doc << "\n";
  std::printf("records written to %s (%s build, sanitizer %s)\n", path.c_str(),
              MANETCAST_BUILD_TYPE, MAINT_SANITIZER);
  return all ? 0 : 1;
}

}  // namespace manet::bench
