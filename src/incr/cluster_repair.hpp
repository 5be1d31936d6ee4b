// Layer 2 of the incremental maintenance engine: LCC cluster repair
// bounded to the dirty region of an edge delta.
//
// cluster::lcc_update scans the whole node population per snapshot. Its
// rules are local, though, and the dirty region is computable from the
// delta alone:
//
//  * Rule 1 (adjacent heads -> larger id resigns) can only fire where a
//    *new* edge joined two previous heads — previous heads were
//    independent, so every head-head adjacency in the new topology runs
//    over an added edge. The resignation cascade stays inside that set.
//  * Rule 2 (re-affiliate or self-declare) only touches nodes whose old
//    affiliation broke: resigned heads, members whose head resigned,
//    and members whose link to their head disappeared. Everyone else
//    keeps its head verbatim ("members do not chase smaller-id heads"),
//    and freshly declared heads are only ever joined by nodes already in
//    that dirty set.
//  * Role flags (gateway/ordinary) are then refreshed for nodes whose
//    head changed, their current neighbors, and the changed-edge
//    endpoints — the exact support of the role predicate.
//
// Processing both rules in ascending id order inside the dirty sets
// replays cluster::lcc_update's global ascending scans exactly, so the
// repaired clustering is bit-identical to a full lcc_update against the
// new topology (pinned by tests and the pipeline's oracle mode).
//
// The rules run region-at-a-time (repair_clustering_region): a region's
// rules read head status within two unit-disk hops of its changed edges
// and write it within one, so on the DeltaTracker's independent-region
// partition (core cells >= 5 grid cells apart, DESIGN S30) per-region
// scans can never observe each other and compose to exactly the one
// global scan. Run inline, the whole delta is one region on the live
// head bitset; run concurrently, each region buffers its head-status
// writes in a HeadStatusOverlay (the shared bitset stays read-only).
// Either way one merge (merge_repairs) finishes the repair: region
// outputs folded, sorted heads list, role refresh.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/lcc.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "graph/bitset.hpp"
#include "graph/dynamic_adjacency.hpp"
#include "incr/edge_delta.hpp"

namespace manet::incr {

/// What one bounded repair changed (all sets sorted-unique).
struct ClusterRepair {
  cluster::LccDelta churn;   ///< LCC rule counters, lcc_update-compatible
  NodeSet head_changed;      ///< nodes whose head_of changed
  NodeSet role_changed;      ///< nodes whose role changed
  NodeSet declared;          ///< members that became heads this tick
  NodeSet resigned;          ///< heads that stepped down this tick
};

/// Read-through view of a head bitset whose writes buffer locally
/// instead of mutating the base. test() sees the region's own flips
/// (latest wins) layered over the frozen base — which is exactly what
/// the one-region inline repair sees inside this region, because no other
/// region's flips are within this region's read radius (DESIGN S30).
/// Flip lists stay tiny (a handful of resignations/declarations), so
/// the read-back scan is cheaper than any hashed structure.
class HeadStatusOverlay {
 public:
  explicit HeadStatusOverlay(const graph::NodeBitset& base) : base_(&base) {}

  bool test(NodeId v) const {
    for (auto it = flips_.rbegin(); it != flips_.rend(); ++it)
      if (it->first == v) return it->second;
    return base_->test(v);
  }
  void set(NodeId v) { flips_.emplace_back(v, true); }
  void reset(NodeId v) { flips_.emplace_back(v, false); }

  /// Replays the buffered flips onto a real bitset (merge stage).
  void apply(graph::NodeBitset& bits) const {
    for (const auto& [v, on] : flips_) {
      if (on) {
        bits.set(v);
      } else {
        bits.reset(v);
      }
    }
  }

 private:
  const graph::NodeBitset* base_;
  std::vector<std::pair<NodeId, bool>> flips_;
};

/// Repairs `c` (valid for the topology before `delta`) in place against
/// the post-delta adjacency `g`: the rules over the whole delta as one
/// region, then merge_repairs. `head_bits` must mirror c.heads on entry
/// and is kept in sync. Expected O(dirty * d) work.
ClusterRepair repair_clustering(const graph::DynamicAdjacency& g,
                                const EdgeDelta& delta,
                                cluster::Clustering& c,
                                graph::NodeBitset& head_bits);

/// Rules 1+2 for one region's slice of the tick delta, against the live
/// head bitset (kept in sync). Writes c.head_of entries inside the
/// region; leaves c.heads and c.roles to merge_repairs.
ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c,
                                       graph::NodeBitset& head_bits);

/// The same rules with head-status writes buffered in `overlay`: does
/// NOT touch the overlay's base bitset, so concurrent calls on distinct
/// regions of one RegionPartition are race-free. The caller replays the
/// overlays onto the real bitset before merging.
ClusterRepair repair_clustering_region(const graph::DynamicAdjacency& g,
                                       const EdgeDelta& region_delta,
                                       cluster::Clustering& c,
                                       HeadStatusOverlay& overlay);

/// Runs refresh_roles over a sorted support set, leaving the nodes whose
/// role flipped in the (empty on entry) `changed`, ascending — in one
/// piece, or in chunks on a worker pool.
using RoleRefresh =
    std::function<void(std::span<const NodeId> support, NodeSet& changed)>;

/// The merge that finishes every repair: folds the rule outputs of the
/// tick's regions (in region order; disjoint by S30) into one sorted
/// repair, moves resigned/declared into the sorted heads list, refreshes
/// roles over the support of the role predicate (head_changed ∪
/// N(head_changed) ∪ touched) through `refresh`.
ClusterRepair merge_repairs(const graph::DynamicAdjacency& g,
                            const NodeSet& touched, cluster::Clustering& c,
                            std::span<const ClusterRepair> parts,
                            const RoleRefresh& refresh);

/// Recomputes roles for `nodes` (must be sorted ascending) against the
/// final post-repair head_of, appending nodes whose role flipped to
/// `changed` in order. Writes only c.roles[v] for v in `nodes`, so
/// disjoint chunks of one sorted support set can run concurrently and
/// their `changed` outputs concatenate (in chunk order) to the result of
/// one pass over the whole set.
void refresh_roles(const graph::DynamicAdjacency& g, cluster::Clustering& c,
                   std::span<const NodeId> nodes, NodeSet& changed);

}  // namespace manet::incr
