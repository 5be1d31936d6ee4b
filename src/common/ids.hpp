// Node identifiers and small id-set helpers shared across all modules.
//
// The paper's algorithms are id-driven (lowest-ID clustering, ID tie-breaks
// in gateway selection), so ids are plain dense integers: node i of an
// n-node network has id i. kInvalidNode marks "no node" (e.g. a
// non-clusterhead source with no upstream relay yet).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace manet {

/// Dense node identifier; nodes of an n-node network are [0, n).
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// A set of node ids kept sorted and unique (the representation used for
/// coverage sets, forward sets and backbones throughout the library).
using NodeSet = std::vector<NodeId>;

/// Inserts `v` into the sorted-unique set `s`; returns true if inserted.
bool insert_sorted(NodeSet& s, NodeId v);

/// True if the sorted-unique set `s` contains `v`.
bool contains_sorted(const NodeSet& s, NodeId v);

/// Removes `v` from the sorted-unique set `s`; returns true if removed.
bool erase_sorted(NodeSet& s, NodeId v);

/// Applies a batch of flips to the sorted-unique set `s` in one merge
/// pass, in place: drops every element of `removed`, then merges in
/// `added` (both sorted-unique; `added` must be disjoint from what stays
/// in `s`). The result equals erase_sorted / insert_sorted per element,
/// in O(|s| + |removed| + |added|) instead of O(|s|) per flip.
void apply_sorted_flips(NodeSet& s, const NodeSet& removed,
                        const NodeSet& added);

/// Sorts and deduplicates `s` in place (turns any vector into a NodeSet).
void normalize(NodeSet& s);

/// Sorted-set difference a \ b (both inputs must be sorted-unique).
NodeSet set_difference(const NodeSet& a, const NodeSet& b);

/// Sorted-set intersection (both inputs must be sorted-unique).
NodeSet set_intersection(const NodeSet& a, const NodeSet& b);

/// Sorted-set union (both inputs must be sorted-unique).
NodeSet set_union(const NodeSet& a, const NodeSet& b);

/// Number of elements in a ∩ b without materializing it.
std::size_t intersection_size(const NodeSet& a, const NodeSet& b);

/// True if every element of `a` is in `b` (both sorted-unique).
bool is_subset(const NodeSet& a, const NodeSet& b);

}  // namespace manet
