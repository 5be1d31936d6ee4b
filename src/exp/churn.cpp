#include "exp/churn.hpp"

#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "cluster/lcc.hpp"
#include "common/assert.hpp"
#include "common/rss.hpp"
#include "core/static_backbone.hpp"
#include "exp/mobility_mix.hpp"
#include "geom/unit_disk.hpp"
#include "incr/pipeline.hpp"
#include "obs/session.hpp"

namespace manet::exp {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::string model_name(ChurnConfig::Model model) {
  return model == ChurnConfig::Model::kWaypoint ? "waypoint" : "direction";
}

ChurnResult run_churn(const ChurnConfig& config) {
  MANET_REQUIRE(config.ticks > 0, "churn run needs at least one tick");
  MANET_REQUIRE(config.rebuild_every > 0, "rebuild stride must be >= 1");

  // Layout + mobility model + mover sampling, on the fixed per-seed rng
  // streams shared with run_msg_churn (identical trajectories).
  MobilityMix mix(config);

  incr::PipelineOptions options;
  options.mode = config.mode;
  options.oracle_check = config.oracle_check;
  options.obs = config.obs;
  options.threads = config.threads;
  options.pipeline_depth = config.pipeline_depth;
  options.grid = config.grid;
  options.streaming_build = config.streaming_build;
  incr::IncrementalPipeline pipeline(mix.positions(), mix.range(),
                                     config.width, config.height, options);
  obs::TraceRecorder* tr = config.obs ? &config.obs->trace : nullptr;

  // Rebuild baseline state: the previous tick's clustering, repaired by a
  // full LCC pass each tick (what a snapshot-based deployment would run).
  cluster::Clustering rebuild_previous = pipeline.clustering();

  ChurnResult result;
  result.ticks = config.ticks;
  double incr_ms = 0.0;
  double rebuild_ms = 0.0;
  std::size_t rebuild_ticks = 0;

  for (std::size_t tick = 0; tick < config.ticks; ++tick) {
    const std::span<const NodeId> moved = mix.advance();
    const std::vector<geom::Point>& positions = mix.positions();

    // Incremental path: stage the moved nodes, repair from the delta.
    const auto incr_start = Clock::now();
    for (const NodeId v : moved) pipeline.stage_move(v, positions[v]);
    const incr::TickStats stats = pipeline.tick();
    incr_ms += ms_since(incr_start);

    // Rebuild baseline: from-scratch graph, full LCC pass, full backbone.
    // With a stride > 1 the skipped ticks leave `rebuild_previous` stale,
    // so the baseline repairs a k-tick-old clustering — still the honest
    // "snapshot deployment" cost, but no longer comparable to the
    // engine's CDS, hence the equality check is stride-1 only.
    if (config.rebuild_baseline && tick % config.rebuild_every == 0) {
      obs::Span span(tr, "churn", "rebuild_baseline",
                     static_cast<std::uint64_t>(tick + 1), "links");
      const auto rebuild_start = Clock::now();
      const graph::Graph g = geom::unit_disk_graph(positions, mix.range());
      cluster::Clustering repaired =
          cluster::lcc_update(g, rebuild_previous);
      const core::StaticBackbone full =
          core::build_static_backbone(g, repaired, config.mode);
      rebuild_ms += ms_since(rebuild_start);
      ++rebuild_ticks;
      span.set_arg(g.edges().size());
      // Pipelined runs lag: the maintained CDS is one in-flight tick
      // behind the positions the baseline just rebuilt from.
      if (config.rebuild_every == 1 && config.pipeline_depth <= 1) {
        MANET_ASSERT(full.cds == pipeline.backbone().cds(),
                     "incremental and rebuilt CDS diverged");
      }
      rebuild_previous = std::move(repaired);
    }

    result.mean_link_changes += static_cast<double>(stats.link_changes);
    result.mean_head_changes += static_cast<double>(stats.head_changes);
    result.mean_role_changes += static_cast<double>(stats.role_changes);
    result.mean_backbone_changes +=
        static_cast<double>(stats.backbone_changes);
    result.mean_coverage_changes +=
        static_cast<double>(stats.coverage_changes);
    result.mean_rows_recomputed +=
        static_cast<double>(stats.rows_recomputed);
    result.mean_heads_reselected +=
        static_cast<double>(stats.heads_reselected);
    result.mean_regions += static_cast<double>(stats.regions);
  }

  // Join the in-flight repair (pipelined mode); its tick's stats are
  // the one installment the loop hasn't accumulated yet. The drain time
  // belongs to the wall clock of the incremental side.
  const auto drain_start = Clock::now();
  const incr::TickStats last = pipeline.drain();
  const double wall_ms = incr_ms + ms_since(drain_start);
  result.mean_link_changes += static_cast<double>(last.link_changes);
  result.mean_head_changes += static_cast<double>(last.head_changes);
  result.mean_role_changes += static_cast<double>(last.role_changes);
  result.mean_backbone_changes += static_cast<double>(last.backbone_changes);
  result.mean_coverage_changes += static_cast<double>(last.coverage_changes);
  result.mean_rows_recomputed += static_cast<double>(last.rows_recomputed);
  result.mean_heads_reselected += static_cast<double>(last.heads_reselected);
  result.mean_regions += static_cast<double>(last.regions);

  const double ticks = static_cast<double>(config.ticks);
  result.incremental_ms_per_tick = incr_ms / ticks;
  result.wall_ms_per_tick = wall_ms / ticks;
  result.rebuild_ms_per_tick =
      rebuild_ticks > 0 ? rebuild_ms / static_cast<double>(rebuild_ticks)
                        : 0.0;
  result.speedup =
      result.incremental_ms_per_tick > 0.0
          ? result.rebuild_ms_per_tick / result.incremental_ms_per_tick
          : 0.0;  // degenerate only for sub-microsecond runs
  result.mean_link_changes /= ticks;
  result.mean_head_changes /= ticks;
  result.mean_role_changes /= ticks;
  result.mean_backbone_changes /= ticks;
  result.mean_coverage_changes /= ticks;
  result.mean_rows_recomputed /= ticks;
  result.mean_heads_reselected /= ticks;
  result.mean_regions /= ticks;
  result.state_hash = pipeline.backbone().state_hash();
  result.peak_rss_bytes = peak_rss_bytes();
  result.connected = mix.connected();
  result.connect_attempts_used = mix.connect_attempts_used();
  return result;
}

}  // namespace manet::exp
