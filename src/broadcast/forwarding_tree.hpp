// Cluster-based forwarding tree (Pagani & Rossi) from the paper's §2:
//
//   "The forwarding tree is rooted at the clusterhead of source and
//    follows the order of clusterhead, gateway, then clusterhead again to
//    build the tree. … The forwarding tree, thus, can be built level by
//    level until all the clusters join in the tree."
//
// We build the tree over the cluster graph: BFS from the source's
// clusterhead; each newly reached clusterhead is attached through the
// connecting gateway (or gateway pair, for a 3-hop neighbor) with the
// smallest ids. Broadcasting along the tree makes exactly the tree nodes
// (plus a non-clusterhead source) forward. The paper's §2 criticism —
// "such a forwarding tree is hard to maintain in MANETs" — is quantified
// by the mobility bench; here we provide the structure and its broadcast,
// which runs on the relay-once flood of broadcast/relay.hpp.
#pragma once

#include <string>
#include <vector>

#include "broadcast/stats.hpp"
#include "cluster/lowest_id.hpp"
#include "common/ids.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// A cluster-based forwarding tree for one root cluster.
struct ForwardingTree {
  NodeId root_head = kInvalidNode;
  /// parent[v] = upstream tree node (kInvalidNode for the root and
  /// non-members).
  std::vector<NodeId> parent;
  /// All tree members (heads + connecting gateways), sorted.
  NodeSet members;

  bool contains(NodeId v) const { return contains_sorted(members, v); }
};

/// Builds the tree rooted at `source`'s clusterhead. Requires a connected
/// graph (every cluster joins the tree).
ForwardingTree build_forwarding_tree(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     const core::NeighborTables& tables,
                                     NodeId source);

/// Checks tree invariants: parent edges exist, members span all clusters,
/// the tree is acyclic and connected. Empty string when valid.
std::string validate_forwarding_tree(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     const ForwardingTree& tree);

/// Broadcast along the tree: the source sends to its head, every tree
/// member forwards once.
BroadcastStats forwarding_tree_broadcast(const graph::Graph& g,
                                         const ForwardingTree& tree,
                                         NodeId source);

}  // namespace manet::broadcast
