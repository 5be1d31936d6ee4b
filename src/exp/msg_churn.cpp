#include "exp/msg_churn.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rss.hpp"
#include "exp/mobility_mix.hpp"
#include "incr/pipeline.hpp"
#include "proto/engine.hpp"

namespace manet::exp {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

MsgChurnResult run_msg_churn(const MsgChurnConfig& config) {
  const ChurnConfig& base = config.base;
  MANET_REQUIRE(base.ticks > 0, "msg churn run needs at least one tick");
  MANET_REQUIRE(config.burst_fraction >= 0.0 && config.burst_fraction <= 1.0,
                "burst fraction must be in [0, 1]");

  MobilityMix mix(base);
  const std::size_t n = base.nodes;

  proto::EngineOptions eopts;
  eopts.mode = base.mode;
  eopts.oracle_check = config.oracle_check;
  eopts.grid = base.grid;
  eopts.streaming_build = base.streaming_build;
  eopts.obs = base.obs;
  eopts.threads = config.engine_threads;
  eopts.inject_stale_gateway_fault = config.inject_stale_gateway_fault;
  proto::MaintenanceEngine engine(mix.positions(), mix.range(), base.width,
                                  base.height, eopts);

  // The lockstep witness: a snapshot-driven engine over the same moves.
  std::optional<incr::IncrementalPipeline> witness;
  if (config.crosscheck) {
    incr::PipelineOptions popts;
    popts.mode = base.mode;
    popts.grid = base.grid;
    popts.streaming_build = base.streaming_build;
    popts.threads = base.threads;
    witness.emplace(mix.positions(), mix.range(), base.width, base.height,
                    popts);
    MANET_ASSERT(engine.state_hash() == witness->backbone().state_hash(),
                 "maintenance and incremental engines disagree at tick 0");
  }

  const std::size_t burst_tick =
      config.burst_fraction > 0.0 ? base.ticks / 2 : base.ticks;
  const std::size_t burst_movers = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config.burst_fraction * static_cast<double>(n))));

  MsgChurnResult result;
  result.ticks = base.ticks;
  result.nodes = n;
  net::MessageCounts msgs;  // summed per-tick deltas
  std::size_t deliveries = 0;
  std::size_t rounds_sum = 0;
  double wall_ms = 0.0;
  double deliver_ms = 0.0, node_step_ms = 0.0, mirror_ms = 0.0;

  for (std::size_t tick = 0; tick < base.ticks; ++tick) {
    const bool is_burst = tick == burst_tick;
    const std::span<const NodeId> moved = mix.advance(
        is_burst ? std::max(burst_movers, mix.movers_per_tick())
                 : mix.movers_per_tick());
    const std::vector<geom::Point>& positions = mix.positions();

    for (const NodeId v : moved) engine.stage_move(v, positions[v]);
    if (witness)
      for (const NodeId v : moved) witness->stage_move(v, positions[v]);

    const auto tick_start = Clock::now();
    const proto::MaintTickStats stats = engine.tick();
    wall_ms += ms_since(tick_start);

    if (witness) {
      witness->tick();
      const std::uint64_t expect = witness->backbone().state_hash();
      const std::uint64_t got = engine.state_hash();
      if (got != expect)
        throw std::logic_error(
            "maintenance protocol state hash diverged from the incremental "
            "engine at tick " +
            std::to_string(tick + 1) + ": protocol " + std::to_string(got) +
            " vs incremental " + std::to_string(expect));
    }

    rounds_sum += stats.rounds;
    deliver_ms += stats.deliver_ms;
    node_step_ms += stats.node_step_ms;
    mirror_ms += stats.mirror_ms;
    result.max_rounds = std::max(result.max_rounds, stats.rounds);
    if (is_burst) result.burst_rounds = stats.rounds;
    if (engine.active_regions() > 1) ++result.multi_region_ticks;
    msgs.maint_hello += stats.messages.maint_hello;
    msgs.r1_status += stats.messages.r1_status;
    msgs.r2_status += stats.messages.r2_status;
    msgs.ch_hop1 += stats.messages.ch_hop1;
    msgs.ch_hop2 += stats.messages.ch_hop2;
    msgs.gateway += stats.messages.gateway;
    deliveries += stats.delivery.deliveries;
    result.mean_link_changes += static_cast<double>(stats.link_changes);
    result.mean_head_changes += static_cast<double>(stats.head_changes);
    result.mean_role_changes += static_cast<double>(stats.role_changes);
    result.mean_rows_changed += static_cast<double>(stats.rows_changed);
    result.mean_heads_refreshed +=
        static_cast<double>(stats.heads_refreshed);
  }

  const double ticks = static_cast<double>(base.ticks);
  const double node_ticks = ticks * static_cast<double>(n);
  result.mean_rounds = static_cast<double>(rounds_sum) / ticks;
  result.hello_rate = static_cast<double>(msgs.maint_hello) / node_ticks;
  result.repair_rate =
      static_cast<double>(msgs.r1_status + msgs.r2_status) / node_ticks;
  result.rows_rate =
      static_cast<double>(msgs.ch_hop1 + msgs.ch_hop2) / node_ticks;
  result.gateway_rate = static_cast<double>(msgs.gateway) / node_ticks;
  result.total_rate =
      static_cast<double>(msgs.maintenance_total()) / node_ticks;
  result.deliveries_rate = static_cast<double>(deliveries) / node_ticks;
  result.mean_link_changes /= ticks;
  result.mean_head_changes /= ticks;
  result.mean_role_changes /= ticks;
  result.mean_rows_changed /= ticks;
  result.mean_heads_refreshed /= ticks;
  result.wall_ms_per_tick = wall_ms / ticks;
  result.deliver_ms_per_tick = deliver_ms / ticks;
  result.node_step_ms_per_tick = node_step_ms / ticks;
  result.mirror_ms_per_tick = mirror_ms / ticks;
  result.state_hash = engine.state_hash();
  result.peak_rss_bytes = peak_rss_bytes();
  result.connected = mix.connected();
  result.connect_attempts_used = mix.connect_attempts_used();
  return result;
}

}  // namespace manet::exp
