// Multipoint relaying (Qayyum, Viennot & Laouiti) — the MPR flooding
// baseline from the paper's §2.
//
// Every node precomputes an MPR set: a subset of its neighbors covering
// its whole (open) 2-hop neighborhood, chosen with the standard
// heuristic — first the neighbors that are the sole reachers of some
// 2-hop node, then greedy max-cover. During a broadcast, a node
// retransmits iff it has not transmitted yet and it is an MPR of a
// neighbor it received a copy from — any copy, not only the first. The
// broadcast runs on the relay-once flood of broadcast/relay.hpp.
#pragma once

#include <string>
#include <vector>

#include "broadcast/stats.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// MPR sets for every node (mpr[v] is sorted-unique, a subset of N(v)).
std::vector<NodeSet> compute_mpr_sets(const graph::Graph& g);

/// Checks the MPR property: mpr[v] ∪ N[v] reaches all of N²(v).
/// Empty string when valid.
std::string validate_mpr_sets(const graph::Graph& g,
                              const std::vector<NodeSet>& mpr);

/// Simulates an MPR flood from `source` using precomputed sets.
BroadcastStats mpr_broadcast(const graph::Graph& g,
                             const std::vector<NodeSet>& mpr, NodeId source);

/// Convenience overload computing the sets internally.
BroadcastStats mpr_broadcast(const graph::Graph& g, NodeId source);

}  // namespace manet::broadcast
