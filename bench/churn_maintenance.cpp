// Incremental vs full-rebuild maintenance cost under churn.
//
// Drives exp::run_churn over both mobility models (random waypoint and
// random direction) at n up to 2000 with ~1% of nodes moving per tick,
// and reports per-tick wall-clock of the incremental engine (src/incr)
// against the batch baseline (unit-disk graph + full LCC pass + full
// backbone rebuild). The acceptance gate for the engine is the waypoint
// n=2000, d=6 row: incremental must be >= 5x faster than the rebuild.
//
// Two extra sections ride on top of the matrix:
//  * verify: the engine at (threads, pipeline_depth) in {(1,1), (2,1),
//    (8,1), (2,2), (8,2), (k,1), (k,2)}, then the dense sequential
//    engine as the last row, must all land on one state hash. Under
//    --threads=<k> > 1 it runs the matrix's waypoint d=6 workload at its
//    largest n; under --scale the sweep's workload at its smallest n
//    (both, one hash each, when both flags are given);
//  * scale, under --scale (or --scale-fast): the 100k/300k/1M sweep —
//    sparse cell index + streaming topology build + cell-major labels,
//    0.5% movers, ascending sizes, no rebuild baseline. Below 1M each
//    size runs threads {1, 2, 4} (threaded rows pipelined at depth 2),
//    which must land on one hash. The sweep feeds the O(n) memory audit
//    in docs/PERFORMANCE.md; the 1M row must hold 1 KB/node.
// The exit code gates the hashes and the RSS budget (bench/maint_harness).
//
// Flags: --fast (fewer ticks, sizes capped at 500), --seed=<u64>,
//        --ticks=<k>, --move-frac=<f> (default 0.01),
//        --threads=<k> (default 1, engine lanes for every row),
//        --pipeline (tick pipelining depth 2 for every matrix row),
//        --repeat=<k> (median-of-k scale rows; hashes must agree),
//        --scale / --scale-fast (scaling sweep; fast stops at 10k),
//        --json=<path> (default results/BENCH_churn.json, or under
//        --scale BENCH_scale.json in the working directory: the
//        committed artifact that tracks the perf trajectory),
//        --trace-out=<path> (Chrome-trace JSON of the last run; open in
//        Perfetto / chrome://tracing), --journal-out=<path> (its event
//        journal). A malformed or negative number exits 2.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/artifacts.hpp"
#include "common/flags.hpp"
#include "exp/churn.hpp"
#include "maint_harness.hpp"

namespace {

using namespace manet;
using bench::Harness;
using Sizes = std::vector<std::size_t>;

/// The incremental engine on `config` at the given lanes and depth.
Harness::Run churn(exp::ChurnConfig config, std::size_t threads,
                   std::size_t depth) {
  config.threads = threads;
  config.pipeline_depth = depth;
  return [config](obs::Session& session) mutable {
    config.obs = &session;
    const exp::ChurnResult r = exp::run_churn(config);
    bench::Row row = bench::make_row("incr", config, r);
    row.stats = {{"incremental_ms_per_tick", r.incremental_ms_per_tick},
                 {"rebuild_ms_per_tick", r.rebuild_ms_per_tick},
                 {"speedup", r.speedup},
                 {"mean_link_changes", r.mean_link_changes},
                 {"mean_rows_recomputed", r.mean_rows_recomputed},
                 {"mean_regions", r.mean_regions},
                 {"mean_head_changes", r.mean_head_changes},
                 {"mean_backbone_changes", r.mean_backbone_changes},
                 {"mean_heads_reselected", r.mean_heads_reselected}};
    return row;
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const Flags flags(argc, argv);
  Harness h("churn_maintenance", flags,
            {"incr_ms", "rebld_ms", "speedup", "links/t", "rows/t", "reg/t"});
  const bool fast = flags.get_bool("fast");
  const std::size_t ticks = flags.get_count("ticks", fast ? 50 : 200);
  const double move_frac = flags.get_double("move-frac", 0.01);
  const std::size_t threads = flags.get_count("threads", 1);
  const std::size_t depth = flags.get_bool("pipeline") ? 2 : 1;
  const bool scale_fast = flags.get_bool("scale-fast");
  const bool scale = flags.get_bool("scale") || scale_fast;
  const std::string json_path =
      scale && !flags.has("json")
          ? "BENCH_scale.json"
          : artifact_path(flags, flags.get("json", "BENCH_churn.json"));

  const Sizes sizes = fast ? Sizes{100, 500} : Sizes{100, 500, 1000, 2000};
  const auto matrix_config = [&](exp::ChurnConfig::Model model, std::size_t n,
                                 double degree) {
    return exp::ChurnConfig{
        .nodes = n, .degree = degree, .ticks = ticks,
        .move_fraction = move_frac, .model = model, .seed = h.seed()};
  };

  std::puts(
      "manetcast :: churn_maintenance — incremental engine vs full rebuild");
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection})
    for (const std::size_t n : sizes)
      for (const double degree : {6.0, 18.0})
        // The dense setting is only interesting at the paper's scale.
        if (degree == 6.0 || n <= 500)
          h.record("matrix",
                   churn(matrix_config(model, n, degree), threads, depth));

  // The sweep: one-shot topology generation (connectivity is hopeless at
  // d=6 and these sizes) and no rebuild baseline (at 1M a second full
  // backbone would double the audited footprint, and an O(n) rebuild
  // next to only the threads=1 rows would fake a multi-core speedup).
  const Sizes scale_sizes = !scale       ? Sizes{}
                            : scale_fast ? Sizes{10000}
                                         : Sizes{100000, 300000, 1000000};
  const auto sweep_config = [&](std::size_t n) {
    return exp::ChurnConfig{.nodes = n, .ticks = scale_fast ? 10u : 30u,
                            .move_fraction = 0.005, .seed = h.seed(),
                            .rebuild_baseline = false, .connect_attempts = 1,
                            .grid = geom::GridIndex::kSparse,
                            .streaming_build = true, .cell_order = true};
  };

  // The verify stage, once per workload: the matrix's waypoint d=6 at its
  // largest n under --threads>1, the sweep's at its smallest under
  // --scale. The depth-2 rows prove that overlapping tick t+1's commit
  // with tick t's repair lands on the state the synchronous engine
  // reaches (DESIGN S31); the dense row that the sparse index and
  // streaming build change nothing but footprint and speed. cell_order
  // stays off: the relabeling depends on the grid's lattice (dense
  // clamping coarsens it), so cross-grid comparisons need the original
  // labels. The matrix workload keeps its 1% churn: at 5% the painted
  // blocks chain into one region almost every tick and the sharded path
  // never engages.
  std::vector<exp::ChurnConfig> verify_bases;
  if (threads > 1)
    verify_bases.push_back(matrix_config(exp::ChurnConfig::Model::kWaypoint,
                                         sizes.back(), 6.0));
  if (scale) verify_bases.push_back(sweep_config(scale_sizes.front()));
  for (exp::ChurnConfig base : verify_bases) {
    base.rebuild_baseline = false;
    base.cell_order = false;
    std::vector<std::pair<std::size_t, std::size_t>> lanes{
        {1, 1}, {2, 1}, {8, 1}, {2, 2}, {8, 2}};
    if (threads > 2 && threads != 8)
      lanes.insert(lanes.end(), {{threads, 1}, {threads, 2}});
    std::vector<Harness::Run> runs;
    for (const auto& [t, d] : lanes) runs.push_back(churn(base, t, d));
    base.grid = geom::GridIndex::kDense;
    base.streaming_build = false;
    runs.push_back(churn(base, 1, 1));
    h.verify("verify", runs, false);
  }

  for (const std::size_t n : scale_sizes) {
    // The 1M row stays threads=1: it is the memory-audit row, and RSS is
    // monotone per process, so a threaded rerun would contaminate the
    // reading.
    std::vector<bench::Row> lanes;  // one median per thread count
    for (const std::size_t t : n >= 1000000 ? Sizes{1} : Sizes{1, 2, 4}) {
      lanes.push_back(
          h.repeated("scale", churn(sweep_config(n), t, t > 1 ? 2 : 1)));
      if (n >= 1000000)
        h.rss_gate("rss_budget", bench::rss_within(lanes.back(), 1024.0));
    }
    h.gate("one_hash", bench::one_hash(lanes, false));
  }
  return h.finish(json_path);
} catch (const FlagError& e) {
  // Only a bad flag exits 2; whatever a run throws propagates.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
