// Broadcasting over a source-independent CDS (paper §3, "Broadcasting in
// a Cluster-Based SI-CDS Backbone"):
//   1. the source sends to all its neighbors;
//   2. a backbone node relays the first copy it receives;
//   3. everyone else stays silent.
// Works with any CDS — the static backbone, MO_CDS, or an exact MCDS.
// Runs on the relay-once flood of broadcast/relay.hpp.
#pragma once

#include "broadcast/stats.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Simulates a broadcast from `source` where exactly the nodes of `cds`
/// (sorted-unique) relay. The source transmits regardless of membership.
BroadcastStats si_cds_broadcast(const graph::Graph& g, const NodeSet& cds,
                                NodeId source);

}  // namespace manet::broadcast
