// Message-driven maintenance experiment: what does the HELLO-paced
// protocol engine (src/proto) spend on the wire to keep the backbone
// current, and does it land on the exact state the snapshot-driven
// incremental engine (src/incr) maintains?
//
// Each tick the shared mobility front-end (exp/mobility_mix.hpp) moves a
// fraction of the nodes; the maintenance engine commits the link delta,
// beacons, and runs its repair/refresh waves to quiescence. In
// crosscheck mode an incr::IncrementalPipeline consumes the identical
// move sequence and the two state hashes must be bitwise-equal after
// every tick — the strongest form of the PR's equivalence claim, and
// the per-tick traffic counters are the material for the paper's O(n)
// maintenance-communication argument.
#pragma once

#include <cstdint>

#include "exp/churn.hpp"

namespace manet::exp {

/// One message-maintenance run. Embeds ChurnConfig for the shared
/// topology/mobility/mode/seed knobs. pipeline_depth and rebuild_* are
/// ignored; `threads` sizes the crosscheck witness pipeline, while the
/// protocol engine's own lanes are `engine_threads` (its state is
/// bitwise thread-count-invariant either way).
struct MsgChurnConfig {
  ChurnConfig base;
  /// Drive an incremental pipeline over the identical move sequence and
  /// require state-hash equality after every tick.
  bool crosscheck = true;
  /// Additionally rebuild the expected state from scratch inside the
  /// engine every tick (proto::EngineOptions::oracle_check) — a
  /// field-by-field diff instead of a hash compare. Slow; for tests.
  bool oracle_check = false;
  /// Move burst: at tick ticks/2, this fraction of all nodes moves in a
  /// single tick (0 disables; overrides move_fraction for that tick if
  /// larger). The burst tick's round count measures reconvergence after
  /// a correlated topology shock.
  double burst_fraction = 0.0;
  /// Region-sharded engine execution (proto::EngineOptions::threads):
  /// 0 = the classic sequential simulator loop, k >= 1 = active repair
  /// regions as independent scoped simulations on k lanes. State hash
  /// and deterministic metrics are bitwise-invariant across values.
  std::size_t engine_threads = 0;
  /// Re-introduce the historical stale-gateway-flag bug in every node
  /// (proto::EngineOptions::inject_stale_gateway_fault). Only the
  /// divergence-forensics test sets this.
  bool inject_stale_gateway_fault = false;
};

/// Aggregated outcome. Per-node-per-tick message rates are the O(n)
/// evidence: they must stay flat as n grows.
struct MsgChurnResult {
  std::size_t ticks = 0;
  std::size_t nodes = 0;
  double mean_rounds = 0.0;       ///< simulator rounds per tick
  std::uint32_t max_rounds = 0;
  std::uint32_t burst_rounds = 0;  ///< rounds of the burst tick (0 = none)
  /// Sharded ticks that ran two or more active repair regions.
  std::size_t multi_region_ticks = 0;
  // Transmissions per node per tick, by type.
  double hello_rate = 0.0;        ///< MAINT_HELLO (always 1.0)
  double repair_rate = 0.0;       ///< R1_STATUS + R2_STATUS
  double rows_rate = 0.0;         ///< CH_HOP1 + CH_HOP2 refresh
  double gateway_rate = 0.0;      ///< GATEWAY floods + re-sends
  double total_rate = 0.0;        ///< all maintenance transmissions
  double deliveries_rate = 0.0;   ///< per-node deliveries (wire fan-out)
  // Mean per-tick churn (context for the traffic numbers).
  double mean_link_changes = 0.0;
  double mean_head_changes = 0.0;
  double mean_role_changes = 0.0;
  double mean_rows_changed = 0.0;
  double mean_heads_refreshed = 0.0;
  double wall_ms_per_tick = 0.0;  ///< engine tick cost (protocol side only)
  // Mean per-phase breakdown of wall_ms_per_tick (bench reporting; the
  // remainder is commit/accounting overhead). Summed across lanes under
  // concurrent region execution, so deliver+node_step can exceed wall.
  double deliver_ms_per_tick = 0.0;    ///< message delivery passes
  double node_step_ms_per_tick = 0.0;  ///< node code (timers + rounds)
  double mirror_ms_per_tick = 0.0;     ///< mirror refresh (ledger drain)
  /// Digest of the final maintained state — equal to run_churn's
  /// state_hash for the same ChurnConfig (and asserted equal every tick
  /// when crosscheck is on).
  std::uint64_t state_hash = 0;
  std::size_t peak_rss_bytes = 0;
  bool connected = false;
  std::size_t connect_attempts_used = 0;
};

/// Runs one message-driven maintenance simulation. Deterministic in
/// base.seed; throws std::logic_error on an oracle/crosscheck mismatch.
MsgChurnResult run_msg_churn(const MsgChurnConfig& config);

}  // namespace manet::exp
