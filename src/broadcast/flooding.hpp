// Blind flooding — the redundancy baseline behind the broadcast storm
// problem (Ni et al., the paper's motivation): every node retransmits the
// packet exactly once. The relay-once flood of broadcast/relay.hpp with
// a rule that always relays.
#pragma once

#include "broadcast/stats.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Simulates blind flooding from `source`.
BroadcastStats flood(const graph::Graph& g, NodeId source);

}  // namespace manet::broadcast
