// Benchmark entry point: runs one workload and prints a human-readable
// summary, one `record` line (fingerprints plus every metric), and, last,
// the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--source-id <id>]
// Exit status: 0 when every operation and the end-of-run check passed,
// 1 when any failed (the result line is still printed), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JsonObject;
using perfbench::Metric;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--source-id <id>]\nworkloads:",
               why);
  for (const auto& w : perfbench::workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || s[0] == '-') return false;
  out = v;
  return true;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics)
    obj.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  return obj.dump();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, source_id = "unknown";
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      if (!parse_u64(value, seed)) return usage("--seed needs an integer");
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0)
        return usage("--seconds needs a positive integer");
      have_seconds = true;
    } else if (key == "--trace") {
      if (!parse_u64(value, trace) || trace > 1)
        return usage("--trace needs 0 or 1");
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--source-id") {
      source_id = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (!spec) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace > 1)
    return usage("--seed, --seconds and --trace are required");

  perfbench::RunConfig config;
  config.spec = *spec;
  config.seed = seed;
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;
  config.trace_out = config.trace ? trace_out : "";
  const perfbench::RunReport rep = perfbench::run_workload(config);

  for (const std::string& e : rep.errors)
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());
  std::printf("%s  seed %llu  %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(seed),
              config.trace ? "traced" : "untraced");
  for (const auto* list : {&rep.metrics, &rep.extra})
    for (const Metric& m : *list)
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());

  const perfbench::HostFingerprint host = perfbench::host_fingerprint();
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(rep.state_hash));
  JsonObject record;
  record.str("workload", spec->name)
      .integer("seed", seed)
      .boolean("trace", config.trace)
      .raw("host", JsonObject()
                       .integer("nproc", static_cast<std::uint64_t>(host.nproc))
                       .integer("hardware_concurrency",
                                host.hardware_concurrency)
                       .str("cpu_model", host.cpu_model)
                       .dump())
      .raw("build", JsonObject()
                        .str("type", PERFBENCH_BUILD_TYPE)
                        .str("flags", PERFBENCH_FLAGS)
                        .str("compiler", PERFBENCH_COMPILER)
                        .str("source", source_id)
                        .integer("lanes", perfbench::kLanes)
                        .dump())
      .raw("deterministic",
           JsonObject()
               .str("state_hash", hash)
               .integer("timed_ticks",
                        perfbench::timed_ticks(config.seconds))
               .raw("metrics", metrics_json(rep.deterministic))
               .dump())
      .raw("metrics", metrics_json(rep.metrics))
      .raw("extra", metrics_json(rep.extra))
      .integer("attempted", rep.ops.attempted)
      .integer("failed", rep.ops.failed_total());
  std::printf("record %s\n", record.dump().c_str());

  const bool correct = rep.ops.correct();
  std::printf("%s\n", JsonObject()
                          .boolean("correct", correct)
                          .integer("attempted", rep.ops.attempted)
                          .integer("failed", rep.ops.failed_total())
                          .raw("metrics", metrics_json(rep.metrics))
                          .dump()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
