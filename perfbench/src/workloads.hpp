// The benchmark's workloads and the run loop that drives them through the
// library's public API: set-up, warm-up, timed mobility ticks (with
// broadcast probes on the probing workload), the end-of-run correctness
// check, and — in traced runs — per-layer spans plus an untraced replay
// that gives the tracing overhead and the replay state hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/stats.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"

namespace perfbench {

enum class EngineKind { kProto, kIncr };

/// Execution lanes of both engines (`threads = 4`: one per core of the
/// reference host).
inline constexpr std::size_t kLanes = 4;

/// Repetitions per run, each from a fresh set-up over the same seed:
/// setup_s is their median, and a tick's time is its fastest repetition.
inline constexpr std::size_t kRepetitions = 3;

/// Timed tick executions per second of --seconds, summed over the
/// repetitions. A run's work is fixed by (seed, seconds), not by how fast
/// the host is, so its tick sample and deterministic fingerprint repeat
/// exactly, and a faster program finishes sooner.
inline constexpr double kTicksPerSecond = 10.0;

struct WorkloadSpec {
  std::string name;
  EngineKind engine = EngineKind::kProto;
  std::size_t nodes = 0;
  std::size_t movers = 0;        ///< nodes moved per tick
  bool probes = false;           ///< SI + SD broadcast probe after each tick
  std::size_t warmup_ticks = 0;  ///< excluded from the tick percentiles
};

/// The named workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
/// Timed ticks of one repetition: kTicksPerSecond x seconds shared over
/// the repetitions, but never fewer than p90 needs (10 samples beyond).
std::size_t timed_ticks(double seconds);
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(std::string_view name);

struct RunConfig {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event output of the traced run ("" = not written).
  std::string trace_out;
  /// Self-test hook: probes broadcast over the SI-CDS with its gateways
  /// removed, which must show up as failed operations.
  bool break_cds = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  OpCount ops;
  /// The metrics BENCHMARK.json lists: the end-to-end set (untraced) or
  /// the per-layer set (traced). Every workload reports all of them.
  std::vector<Metric> metrics;
  /// Everything else this workload measures (workload-specific metrics).
  std::vector<Metric> extra;
  /// Deterministic fingerprint: final state hash and the counts and
  /// ratios that must repeat exactly for the same seed.
  std::uint64_t state_hash = 0;
  std::vector<Metric> deterministic;
  std::vector<std::string> errors;
};

RunReport run_workload(const RunConfig& config);

/// Outcome of one broadcast probe: an SI-CDS broadcast and a dynamic
/// (SD-CDS) broadcast from the same source.
struct ProbeResult {
  Reach si, sd;
  std::size_t si_forward = 0;
  std::size_t si_transmissions = 0;
  std::size_t sd_forward = 0;
  std::uint32_t si_hops = 0;
  std::uint32_t sd_hops = 0;
  // Wall time of the three timed calls (reach counting is not timed).
  double si_ms = 0.0;
  double build_dyn_ms = 0.0;
  double sd_ms = 0.0;
  bool ok() const { return si.complete() && sd.complete(); }
};

/// Runs one probe over `g` from `source` — broadcast::si_cds_broadcast
/// over `cds`, then core::build_dynamic_backbone on `clustering` and
/// core::dynamic_broadcast — and counts both broadcasts' reach against
/// the component labels. Layer spans go to `tracer`.
ProbeResult run_probe(const manet::graph::Graph& g, const manet::NodeSet& cds,
                      const manet::cluster::Clustering& clustering,
                      manet::core::CoverageMode mode, manet::NodeId source,
                      const std::vector<std::uint32_t>& component_of,
                      Tracer& tracer, std::uint64_t tick);

}  // namespace perfbench
