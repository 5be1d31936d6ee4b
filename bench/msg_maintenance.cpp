// Maintenance traffic of the message-driven backbone engine (src/proto).
//
// Sections:
//  * soak (default): >= 200 ticks of churn for every mobility model x
//    coverage mode combination, with BOTH correctness harnesses armed —
//    the engine-internal from-scratch oracle diff and the per-tick
//    state-hash crosscheck against the snapshot-driven incremental
//    pipeline. A 30% move burst lands mid-run and reports how many
//    simulator rounds reconvergence took. Any divergence aborts the bench
//    (std::logic_error).
//  * traffic: per-node-per-tick transmission rates as n grows. The
//    paper's O(n) maintenance-communication claim shows as a flat total
//    rate; the exit code gates max/min rate <= 1.5 across the sweep.
//  * under --scale the sweep becomes the 10k/100k/1M/10M scale rows
//    (sparse grid + streaming build + cell-major labels, correctness
//    harnesses off so the timings are honest), after a verify stage:
//    the sequential engine and the region-sharded one at engine_threads
//    {1, 2, 8} ({k} under --scale-fast) must land on one state hash and
//    byte-identical deterministic metrics. The scale rows gate bytes per
//    node (no growth over 1.10x between sizes; <= 1 KB/node from 1M up;
//    <= 3 KB/node for the --scale-fast smoke) and sublinear wall time.
//    --scale-fast is the CI smoke (10k only).
// Gates, document and repeat rule: bench/maint_harness.
//
// Flags: --fast (soak at 60 ticks), --seed=<u64>, --ticks=<k>,
//        --move-frac=<f> (default 0.02), --scale / --scale-fast,
//        --threads=<k> (default 2 — engine_threads of the sharded scale
//        rows),
//        --repeat=<k> (median-of-k sweep rows; hashes must agree),
//        --json=<path> (default BENCH_msgmaint.json in the working
//        directory — a committed top-level artifact like
//        BENCH_scale.json; regenerate with --scale --repeat=5; a bare
//        file name lands under --out-dir, default results/),
//        --trace-out=<path> (Chrome-trace JSON of the last run — repair
//        waves render as flow arrows across node tracks in Perfetto),
//        --journal-out=<path> (the same run's event journal as JSONL,
//        the trace_inspect CLI's input). A malformed or negative number
//        exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "exp/msg_churn.hpp"
#include "maint_harness.hpp"

namespace {

using namespace manet;
using bench::Harness;
using Sizes = std::vector<std::size_t>;

/// The protocol engine on `config` with the given engine_threads.
Harness::Run msg(exp::MsgChurnConfig config, std::size_t threads) {
  config.engine_threads = threads;
  return [config](obs::Session& session) mutable {
    config.base.obs = &session;
    const exp::MsgChurnResult r = exp::run_msg_churn(config);
    bench::Row row = bench::make_row("proto", config.base, r);
    row.threads = config.engine_threads;
    // The traffic gate reads the leading msgs_per_node_per_tick.
    row.stats = {{"msgs_per_node_per_tick", r.total_rate},
                 {"mean_rounds", r.mean_rounds}, {"max_rounds", r.max_rounds},
                 {"burst_rounds", r.burst_rounds}, {"hello_rate", r.hello_rate},
                 {"repair_rate", r.repair_rate}, {"rows_rate", r.rows_rate},
                 {"gateway_rate", r.gateway_rate},
                 {"deliveries_per_node_per_tick", r.deliveries_rate},
                 {"mean_link_changes", r.mean_link_changes},
                 {"mean_head_changes", r.mean_head_changes},
                 {"deliver_ms_per_tick", r.deliver_ms_per_tick},
                 {"node_step_ms_per_tick", r.node_step_ms_per_tick},
                 {"mirror_ms_per_tick", r.mirror_ms_per_tick}};
    return row;
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  Harness h("msg_maintenance", flags,
            {"msgs/nt", "rnds", "max", "burst", "hello", "repair", "rows",
             "gateway"});
  const bool fast = flags.get_bool("fast");
  const std::size_t soak_ticks = flags.get_count("ticks", fast ? 60 : 200);
  const double move_frac = flags.get_double("move-frac", 0.02);
  const bool scale_fast = flags.get_bool("scale-fast");
  const bool scale = flags.get_bool("scale") || scale_fast;
  const std::size_t threads = flags.get_count("threads", 2);
  const std::string json_path =
      flags.has("json") ? artifact_path(flags, flags.get("json", ""))
                        : "BENCH_msgmaint.json";

  std::puts(
      "manetcast :: msg_maintenance — HELLO-paced protocol engine traffic");
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    for (const auto mode : {core::CoverageMode::kTwoPointFiveHop,
                            core::CoverageMode::kThreeHop}) {
      const exp::MsgChurnConfig config{
          .base = {.nodes = 120, .ticks = soak_ticks,
                   .move_fraction = move_frac, .model = model, .mode = mode,
                   .seed = h.seed(), .connect_attempts = 5},
          .crosscheck = true, .oracle_check = true, .burst_fraction = 0.3};
      h.record("soak", msg(config, 0));
    }
  }

  // Traffic sweep: the O(n) claim. Correctness harnesses off (the soak
  // just proved them); the gate is the flatness of msgs/node/tick.
  const Sizes sizes = !scale     ? Sizes{200, 500, 1000, 2000}
                      : scale_fast ? Sizes{10000}
                                   : Sizes{10000, 100000, 1000000, 10000000};
  // Scale rows hold the ABSOLUTE churn fixed — 100 movers per tick at
  // every n — instead of a fixed fraction. That is the workload the
  // region-sharded engine is built for: the repair scope is O(changes),
  // so wall/tick must stay near-flat while n grows 1000x. (A fixed
  // fraction at 1M paints essentially every grid cell, degenerating the
  // sharded tick into the sequential one plus overhead — it measures
  // cache thrash, not the engine.) Traffic stays HELLO-dominated, so
  // the flatness gate is unaffected.
  const auto sweep_config = [&](std::size_t n) {
    // Cell-by-cell placement + union-find connectivity: the cold start
    // never materializes a throwaway graph or an unordered layout copy,
    // which is what lets the 10M row start inside the steady-state RSS
    // budget.
    return exp::MsgChurnConfig{
        .base = {.nodes = n,
                 .ticks = scale ? (scale_fast ? 10u : 30u)
                                : (fast ? 40u : 100u),
                 .move_fraction =
                     scale ? 100.0 / static_cast<double>(n) : move_frac,
                 .seed = h.seed(), .connect_attempts = 1,
                 .grid = scale ? geom::GridIndex::kSparse
                               : geom::GridIndex::kAuto,
                 .streaming_build = scale, .cell_order = scale,
                 .streaming_placement = scale},
        .crosscheck = false};
  };

  // Before the sweep, so the monotone peak-RSS counter still reads as a
  // per-size peak for the ascending rows.
  if (scale) {
    std::vector<Harness::Run> runs;
    for (const std::size_t t :
         scale_fast ? Sizes{0, threads} : Sizes{0, 1, 2, 8})
      runs.push_back(msg(sweep_config(sizes.front()), t));
    h.verify("verify", runs, true);
  }

  std::vector<double> rates;
  std::vector<bench::Row> lasts;  // each size's last variant
  for (const std::size_t n : sizes) {
    // Scale sizes below 1M keep a sequential (engine_threads=0) row next
    // to the sharded one, to show what the O(changes) tick buys; at 1M
    // and up a sequential run costs O(n) per tick for no extra
    // information. Traffic rows stay sequential (rates are
    // thread-invariant; the verify stage proves it).
    const Sizes variants = !scale          ? Sizes{0}
                           : n >= 1000000 ? Sizes{threads}
                                          : Sizes{0, threads};
    for (const std::size_t t : variants) {
      const bench::Row row =
          h.repeated(scale ? "scale" : "traffic", msg(sweep_config(n), t));
      rates.push_back(row.stats.front().second);
      if (t != variants.back()) continue;
      lasts.push_back(row);
      // 1 KB/node from 1M up; the smoke gets its own budget, since a
      // 10k-node process is dominated by fixed overhead.
      if (n >= 1000000 || scale_fast)
        h.rss_gate("rss_budget",
                   bench::rss_within(row, scale_fast ? 3072.0 : 1024.0));
    }
  }
  // The 1.5x allowance absorbs boundary effects of the small sizes.
  h.gate("traffic_flat", bench::flat(rates, 1.5));
  if (scale) {
    // Bytes per node must not grow with n (10% allowance for noise).
    h.rss_gate("rss_no_growth", bench::rss_no_growth(lasts, 1.10));
    // With the absolute churn fixed the sharded tick is O(changes), so
    // 10x n must cost < 10x wall.
    h.gate("sublinear_wall", bench::sublinear_wall(lasts));
  }
  return h.finish(json_path);
} catch (const FlagError& e) {
  // Only a bad flag exits 2; whatever a run throws propagates.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
