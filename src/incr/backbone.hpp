// Layer 3 of the incremental maintenance engine: keeping the CH_HOP1 /
// CH_HOP2 tables, coverage sets, per-head gateway selections and the
// SI-CDS current under a stream of edge deltas.
//
// Exact dependency tracking drives the invalidation:
//
//  * CH_HOP1(v) reads v's own head status, v's edges and its neighbors'
//    head status — dirty set = changed-edge endpoints ∪ closed
//    neighborhoods of the head-status flips;
//  * CH_HOP2(v) additionally reads the neighbors' head_of assignments
//    and CH_HOP1 rows — dirty set = changed-edge endpoints ∪ closed
//    neighborhoods of head_of changes and of CH_HOP1 rows that
//    *actually* changed;
//  * coverage and gateway selection of a head h read exactly h's
//    neighbor list and the table rows of h's neighbors — so h needs a
//    rerun only when an edge at h changed, h just became a head, or a
//    neighbor's row *actually* changed (recomputed rows that come out
//    identical prove their readers unchanged, which keeps the expensive
//    selection stage far smaller than the worst-case 3-hop ball).
//
// Rows inside the balls are recomputed with the exact per-row kernels
// the batch path uses (core/table_kernels.hpp,
// core::select_gateways_local), everything else keeps its cached value,
// so after every tick the whole structure is bit-identical to a
// from-scratch core::build_static_backbone over the current topology and
// clustering (asserted by the pipeline's oracle mode and the
// equivalence tests).
// The CDS itself is maintained with per-node selection reference counts,
// so membership materialization never rescans the selections.
//
// One repair body serves every tick, in six stages: cluster rules and
// their merge, role refresh, CH_HOP1, CH_HOP2, head reselection, CDS
// settle. apply() runs them inline on the caller with the whole delta as
// one region; apply_parallel() fans them out over a WorkerPool — the
// rules one job per independent region, the rest in ascending chunks —
// and merges every output in the order the inline pass produces it, so
// both land on the same state bit for bit (DESIGN S30).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/lcc.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"
#include "core/table_kernels.hpp"
#include "graph/bitset.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "incr/cluster_repair.hpp"
#include "incr/edge_delta.hpp"
#include "obs/metrics.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::incr {

struct RegionPartition;
class WorkerPool;

/// What one tick cost and churned. The churn counters use the same
/// definitions as mobility::MaintenanceDelta, so the maintenance-cost
/// experiments can read them straight off the engine.
struct TickStats {
  std::size_t link_changes = 0;       ///< edges appearing or disappearing
  cluster::LccDelta cluster_churn;    ///< LCC rule-level repair counters
  std::size_t head_changes = 0;       ///< nodes whose clusterhead changed
  std::size_t role_changes = 0;       ///< nodes whose cluster role changed
  std::size_t backbone_changes = 0;   ///< static-CDS membership flips
  std::size_t coverage_changes = 0;   ///< heads with new/changed coverage
  std::size_t rows_recomputed = 0;    ///< hop1+hop2 row evaluations
  std::size_t heads_reselected = 0;   ///< coverage+selection reruns
  std::size_t regions = 0;            ///< independent repair regions
};

/// The incrementally maintained static backbone of a mutable topology.
class IncrementalBackbone {
 public:
  /// Full initial build over the current adjacency (one-time O(n) cost;
  /// every later tick is bounded by the dirty region).
  IncrementalBackbone(const graph::DynamicAdjacency& g,
                      core::CoverageMode mode);

  /// Consumes one edge delta: the repair below with the whole delta as
  /// one region and every stage run inline on the caller. `g` must
  /// already reflect the delta (the DeltaTracker hands both over in that
  /// state).
  TickStats apply(const graph::DynamicAdjacency& g, const EdgeDelta& delta);

  /// The same repair with the tick's delta pre-split into the independent
  /// regions of `partition` (DeltaTracker::commit): the region rules and
  /// the row/reselect stages fan out on `pool`, and every shared-structure
  /// merge runs on the caller between barriers. With one lane or fewer
  /// than two regions it runs exactly as apply(). Stage outputs are
  /// merged in the ascending order one inline pass produces, so the
  /// maintained state and the tick's stats are bitwise identical at any
  /// lane count (DESIGN S30).
  TickStats apply_parallel(const graph::DynamicAdjacency& g,
                           const EdgeDelta& delta,
                           const RegionPartition& partition,
                           WorkerPool& pool);

  /// Attaches an observability session: per-phase spans go to its
  /// flight recorder, `incr.*` counters/histograms to its registry.
  /// nullptr detaches. The session must outlive the backbone.
  void set_obs(obs::Session* session);

  /// Spans are buffered during a tick (TraceRecorder is single-writer
  /// and stage jobs run on pool lanes) and written out by flush_trace(),
  /// which apply()/apply_parallel() call on return. In deferred mode they
  /// skip that, so a tick may run concurrently with the driver thread's
  /// own recording; the driver calls flush_trace() after joining it.
  /// Metrics stay live either way (atomic adds commute).
  void set_defer_trace(bool on) { defer_trace_ = on; }
  void flush_trace();

  /// FNV-1a digest of the maintained state (core::backbone_state_hash,
  /// read through the accessors — no materialize() copy).
  std::uint64_t state_hash() const;

  core::CoverageMode mode() const { return tables_.mode; }
  const cluster::Clustering& clustering() const { return clustering_; }
  const core::NeighborTables& tables() const { return tables_; }
  const std::vector<core::Coverage>& coverage() const { return coverage_; }
  const std::vector<core::GatewaySelection>& selection() const {
    return selection_;
  }
  const NodeSet& heads() const { return clustering_.heads; }

  /// Union of all selected gateways, materialized from the maintained
  /// membership bitset.
  NodeSet gateways() const;

  /// The SI-CDS: clusterheads ∪ gateways.
  NodeSet cds() const;

  /// Copies the maintained state into the batch StaticBackbone shape.
  core::StaticBackbone materialize() const;

  /// Compares every maintained structure against a full-rebuild oracle.
  /// Returns an empty string on bitwise equality, else a description of
  /// the first mismatch.
  std::string diff_against(const core::StaticBackbone& oracle) const;

 private:
  /// Pre-resolved metric handles (inert when no session is attached).
  struct ObsHandles {
    obs::Counter links_appeared, links_disappeared, reaffiliations,
        role_changes, heads_declared, heads_resigned, hop1_rows_scanned,
        hop1_rows_changed, hop2_rows_scanned, hop2_rows_changed,
        heads_reselected, coverage_changes, backbone_flips;
    obs::Histogram links_per_tick, rows_per_tick;
  };

  /// One head's recomputed coverage + selection, produced read-only
  /// (thread-safe against other heads) and committed on the caller.
  struct HeadRow {
    core::Coverage cov;
    core::GatewaySelection sel;
  };

  /// One buffered trace span; its track is its slot in spans_.
  struct SpanRec {
    const char* name;
    const char* arg_name;
    std::uint64_t ts, dur, arg;
  };
  class BufferedSpan;
  /// Runs one tick's stage jobs, inline or on a pool (backbone.cpp).
  struct Stages;

  /// The one repair body behind apply() and apply_parallel(): inline
  /// when `pool` is null, else sharded over `partition`'s regions.
  TickStats repair(const graph::DynamicAdjacency& g, const EdgeDelta& delta,
                   const RegionPartition* partition, WorkerPool* pool);
  HeadRow compute_head_row(const graph::DynamicAdjacency& g, NodeId h,
                           core::CoverageScratch& scratch,
                           core::SelectionScratch& sel_scratch) const;
  void commit_head_row(NodeId h, bool was_head, HeadRow&& row,
                       TickStats& stats, NodeSet& cds_candidates);
  void clear_head_rows(NodeId v, NodeSet& cds_candidates);
  void apply_selection_refs(const NodeSet& old_gateways,
                            const NodeSet& new_gateways,
                            NodeSet& cds_candidates);

  cluster::Clustering clustering_;
  graph::NodeBitset head_bits_;
  core::NeighborTables tables_;
  std::vector<core::Coverage> coverage_;
  std::vector<core::GatewaySelection> selection_;
  /// selection_refs_[v] = number of heads whose selection contains v.
  std::vector<std::uint32_t> selection_refs_;
  graph::NodeBitset cds_bits_;  ///< head_bits_ ∪ {v : selection_refs_[v]>0}
  obs::Session* obs_ = nullptr;
  ObsHandles obs_handles_;
  bool defer_trace_ = false;
  /// The span buffer: slot 0 is the repair driver's stage track (tid 0),
  /// slot l + 1 lane l's job track.
  std::vector<std::vector<SpanRec>> spans_{1};
  std::uint64_t ticks_applied_ = 0;  ///< trace span "tick" argument
  /// Reusable coverage + selection bitsets, one per lane (lane 0 serves
  /// the inline stages).
  std::vector<core::CoverageScratch> lane_scratch_{1};
  std::vector<core::SelectionScratch> lane_sel_scratch_{1};
};

}  // namespace manet::incr
