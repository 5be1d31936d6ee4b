// The maintenance-phase protocol engine: MaintenanceNode state machines
// over the event-driven round simulator, fed per-tick link deltas by the
// same DeltaTracker geometry the incremental engine uses.
//
// One tick = commit the staged moves (adjacency overlay updates in
// place; the simulator reads it through a Topology adapter), fire every
// node's HELLO timer, run the simulator to quiescence, then drain the
// nodes' change ledger into a hashable mirror (clustering, tables,
// coverage, selections, gateway union) in O(changes). The mirror exists
// so state_hash() and the oracle diff never rescan all n nodes — the
// protocol's own messages already told us exactly what moved.
//
// Oracle mode rebuilds the expected state from scratch every tick
// (lcc_update over the previous clustering + build_static_backbone) and
// requires bitwise equality — the proof that HELLO-paced, message-driven
// repair lands on the same structure as the snapshot-driven src/incr
// engine, and therefore hashes identically to it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "core/table_kernels.hpp"
#include "geom/point.hpp"
#include "geom/spatial_grid.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "proto/node.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::proto {

/// Engine configuration.
struct EngineOptions {
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  /// After every tick, rebuild the expected state from scratch and
  /// require bitwise equality plus gateway-flag consistency. Slow — for
  /// tests and the equivalence soak only.
  bool oracle_check = false;
  /// Cell storage of the DeltaTracker grid (identical state either way).
  geom::GridIndex grid = geom::GridIndex::kAuto;
  /// Build the initial unit-disk CSR with the streaming counting sweep.
  bool streaming_build = false;
  /// Observability session (`proto.*` metrics, per-tick trace spans,
  /// plus the simulator's `net.*` instrumentation). Must outlive the
  /// engine. nullptr = unobserved.
  obs::Session* obs = nullptr;
  /// Region-sharded tick execution. 0 = the classic sequential
  /// simulator loop over all n nodes. >= 1 runs each tick's active
  /// repair regions as independent scoped simulations, each phase of a
  /// region split into node chunks (1 = inline on the caller; k >= 2 =
  /// regions and chunks on an incr::WorkerPool with k lanes), with the
  /// quiescent remainder of the network accounted analytically — a
  /// tick costs O(active work), not O(n). The maintained state, its
  /// hash, and every deterministic metric are bitwise-identical across
  /// all thread counts and to the sequential loop.
  std::size_t threads = 0;
  /// Test-only: re-enable the historical stale-gateway soft-state bug on
  /// every node (MaintenanceNode::inject_stale_gateway_fault) so the
  /// divergence-forensics path can be exercised against a real fault.
  bool inject_stale_gateway_fault = false;
};

/// What one maintenance tick cost on the wire and churned in the state.
struct MaintTickStats {
  std::uint32_t rounds = 0;          ///< simulator rounds to quiescence
  std::size_t link_changes = 0;      ///< edges appearing or disappearing
  std::size_t head_changes = 0;      ///< nodes whose clusterhead changed
  std::size_t role_changes = 0;      ///< nodes whose cluster role changed
  std::size_t rows_changed = 0;      ///< nodes with a changed table row
  std::size_t heads_refreshed = 0;   ///< heads with new coverage/selection
  std::size_t expired_links = 0;     ///< neighbor-cache expiries (churn)
  /// Tick-relative decision round of every finalized repair this tick
  /// (rule-1 resignations and rule-2 re-affiliations) — how long each
  /// repaired node's state stayed stale. A multiset: the order is the
  /// execution order, which is region-major under sharded execution.
  std::vector<std::uint32_t> stale_ages;
  net::MessageCounts messages;       ///< transmissions this tick, by type
  net::DeliveryStats delivery;       ///< delivery-layer cost this tick
  // Per-phase wall-time breakdown of the tick (bench reporting only —
  // never part of any deterministic observable). Under concurrent
  // region execution deliver/node_step sum across lanes (CPU time).
  double deliver_ms = 0.0;    ///< delivery passes (inbox arena fills)
  double node_step_ms = 0.0;  ///< node code: on_timer + on_round
  double mirror_ms = 0.0;     ///< ledger drain into the hashable mirror
};

/// The message-driven maintained backbone of a mobile unit-disk network.
class MaintenanceEngine {
 public:
  MaintenanceEngine(std::vector<geom::Point> positions, double range,
                    double width, double height, EngineOptions options);

  std::size_t size() const { return tracker_.size(); }
  core::CoverageMode mode() const { return options_.mode; }

  /// Stages a position update (applied at the next tick()).
  void stage_move(NodeId v, geom::Point p) { tracker_.stage_move(v, p); }

  /// One mobility tick: commit moves, beacon, run the protocol to
  /// quiescence, refresh the mirror. Throws std::logic_error on an
  /// oracle mismatch (oracle_check mode).
  MaintTickStats tick();

  // ---- Maintained state (the hashable mirror) ----
  const cluster::Clustering& clustering() const { return clustering_; }
  /// Mirror CH_HOP1/CH_HOP2 row of `v` (interned; content-shared with
  /// the nodes' caches).
  const NodeSet& mirror_hop1(NodeId v) const {
    return store_.hop1(mirror_hop1_[v]);
  }
  const std::vector<core::Hop2Entry>& mirror_hop2(NodeId v) const {
    return store_.hop2(mirror_hop2_[v]);
  }
  /// Mirror selection set of head `v` (empty for non-heads).
  const NodeSet& mirror_selection(NodeId v) const {
    const std::uint32_t s = head_slot_[v];
    return store_.hop1(s != 0 ? head_rows_[s - 1].sel : kEmptyRow);
  }
  /// Union of all selected gateways (maintained by reference counts).
  const NodeSet& gateways() const { return gateways_; }
  /// The SI-CDS: clusterheads ∪ gateways.
  NodeSet cds() const { return set_union(clustering_.heads, gateways_); }

  /// FNV-1a digest of the maintained state — bitwise-identical to
  /// exp::run_churn's digest of the incremental engine over the same
  /// move sequence (core::backbone_state_hash contract).
  std::uint64_t state_hash() const;

  const incr::DeltaTracker& tracker() const { return tracker_; }
  /// The engine-wide interned row store (leak/recycling diagnostics:
  /// live row counts must track the structure, not the churn history).
  const RowStore& store() const { return store_; }
  const net::Simulator& simulator() const { return *sim_; }
  /// Scope-filtered deliveries in sharded rounds >= 2 so far — any
  /// nonzero value is a repair wave escaping its painted region (the
  /// partition-separation property test asserts 0).
  std::size_t cross_scope_late() const { return sim_->cross_scope_late(); }
  /// Active repair regions of the last tick (0 in sequential mode).
  std::size_t active_regions() const { return active_.size(); }
  const MaintenanceNode& node(NodeId v) const;
  std::uint64_t ticks() const { return ticks_; }

  /// Field-by-field comparison of the mirror against a from-scratch
  /// rebuild; empty string on bitwise equality. The overload reports the
  /// first divergent node (kInvalidNode for whole-set diffs with no
  /// single witness) so forensics can walk its causal history.
  std::string diff_against(const core::StaticBackbone& oracle) const;
  std::string diff_against(const core::StaticBackbone& oracle,
                           NodeId* divergent) const;

  /// Gateway-flag soft-state consistency: a selected node's flag must be
  /// set; an unselected node's flag must be clear in 3-hop mode (exact
  /// GC), and in 2.5-hop mode any stale set flag must come only from
  /// origins that cannot refresh the node — a live head outside the
  /// node's current 2-hop ball, or an ex-head whose retraction flood
  /// fired out of the node's earshot. Empty string when consistent. `g`
  /// is the current topology (god's-eye ball check).
  std::string check_gateway_flags(const graph::Graph& g) const;
  /// Overload reporting the inconsistent node and the selecting origin
  /// whose soft state went stale (kInvalidNode when not applicable).
  std::string check_gateway_flags(const graph::Graph& g, NodeId* divergent,
                                  NodeId* origin) const;

  void set_obs(obs::Session* session);

 private:
  class AdjacencyTopology;

  MaintenanceNode& node_mut(NodeId v);
  void drain_ledger(MaintTickStats& stats);
  /// The sharded tick body: region-scoped commit, concurrent region
  /// runs, deterministic merge. Fills stats.link_changes and returns
  /// the tick's round count.
  std::uint32_t run_sharded_tick(MaintTickStats& stats);
  /// O(1)-per-changed-edge maintenance of deg_/deg_count_/degpos_.
  void update_degrees(const incr::EdgeDelta& delta);
  /// Divergence forensics: the causal slice of the journal around the
  /// divergent node (and the origin whose state it mirrors wrongly) —
  /// recent events of both plus the parent-link chain of their newest
  /// messages. Empty without an attached session.
  std::string forensic_report(NodeId divergent, NodeId origin) const;

  EngineOptions options_;
  incr::DeltaTracker tracker_;
  Ledger ledger_;
  KernelScratch scratch_;  ///< shared by all nodes (sequential sim)
  RowStore store_;  ///< interned payload rows (must outlive the nodes)
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::Simulator> sim_;

  // The hashable mirror. Same VALUES as incr::IncrementalBackbone's
  // accessors (state_hash() replicates core::backbone_state_hash
  // byte-for-byte), but interned storage: per-node table rows are
  // RowStore refs content-shared with the node caches (a mirror row
  // costs 8 bytes, not a second copy), and the head-only coverage/
  // selection rows live in slot-compacted entries of three refs each —
  // at n = 10^6 this keeps the whole mirror near 20 B/node where the
  // dense vectors cost ~390 (see DESIGN §9/S33).
  cluster::Clustering clustering_;
  std::vector<RowRef> mirror_hop1_;  ///< per-node CH_HOP1 row
  std::vector<RowRef> mirror_hop2_;  ///< per-node CH_HOP2 row
  /// One head's mirror rows: coverage halves + selection gateways (the
  /// only selection field any observable reads).
  struct HeadMirror {
    RowRef cov2 = kEmptyRow;  ///< Coverage::two_hop
    RowRef cov3 = kEmptyRow;  ///< Coverage::three_hop
    RowRef sel = kEmptyRow;   ///< GatewaySelection::gateways
  };
  std::vector<std::uint32_t> head_slot_;  ///< slot + 1, 0 = no head rows
  std::vector<HeadMirror> head_rows_;
  std::vector<std::uint32_t> free_head_slots_;
  /// selection_refs_[v] = number of heads whose selection contains v.
  std::vector<std::uint32_t> selection_refs_;
  NodeSet gateways_;  ///< {v : selection_refs_[v] > 0}

  // ---- Region-sharded execution (EngineOptions::threads > 0) ----
  std::vector<std::uint32_t> deg_;     ///< current degree per node
  std::vector<std::size_t> deg_count_; ///< deg_count_[d] = #nodes at d
  std::size_t degpos_ = 0;             ///< nodes with degree > 0
  incr::RegionPartition regions_;
  std::vector<std::uint32_t> scope_tag_;  ///< active region + 1, else 0
  std::vector<std::uint32_t> active_;     ///< active region indices
  std::vector<net::RegionRun> region_runs_;
  /// Per-active-region change ledgers, filled chunk-ascending after each
  /// phase and drained region-ascending into ledger_ at merge, so the
  /// mirror refresh is order-deterministic.
  std::vector<Ledger> region_ledgers_;
  /// One chunk's ledger, cache-line aligned: neighboring chunks run on
  /// different lanes and write their ledgers on every dispatch.
  struct alignas(64) ChunkLedger {
    Ledger ledger;
  };
  /// chunk_ledgers_[a][c] = the ledger bound to chunk c's dispatches in
  /// active region a during the current phase.
  std::vector<std::vector<ChunkLedger>> chunk_ledgers_;
  std::vector<KernelScratch> lane_scratch_;  ///< one per lane
  std::unique_ptr<incr::WorkerPool> pool_;  ///< threads >= 2 only

  std::uint64_t ticks_ = 0;
  obs::Session* obs_ = nullptr;
  obs::Counter ticks_counter_, rounds_counter_, link_changes_counter_,
      head_changes_counter_, rows_changed_counter_, reselects_counter_;
  obs::Histogram rounds_hist_, msgs_hist_;
  // Convergence observability (proto.conv.* families — all integer
  // quantities of the deterministic protocol, so snapshots diff
  // byte-for-byte across runs and thread counts).
  obs::Counter conv_expired_counter_;
  obs::Gauge conv_stale_max_gauge_;
  obs::Histogram conv_stale_hist_, conv_wave_depth_hist_,
      conv_quiescence_hist_;
  std::uint64_t stale_age_max_ = 0;  ///< run max fed to the gauge
  std::uint32_t active_run_ = 0;     ///< consecutive non-quiet ticks so far
};

}  // namespace manet::proto
