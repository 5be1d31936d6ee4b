// Dominant pruning (Lim & Kim) and partial dominant pruning (Lou & Wu) —
// the classical source-dependent CDS baselines from the paper's §2.
//
// Both piggyback a forward list on the packet. A listed node v, on the
// first packet that names it (received from u; an unnamed copy may have
// reached v earlier), greedily selects a forward list from its
// neighbors B(v) = N(v) − N[u] to cover the uncovered 2-hop set:
//   DP:  U = N(N(v)) − N[u] − N[v]
//   PDP: U = N(N(v)) − N[u] − N[v] − N(N(u) ∩ N(v))
// PDP's extra exclusion is sound because any node adjacent to a common
// neighbor of u and v lies in N²(u), i.e. inside the region u's own
// selection is responsible for covering. The broadcast runs on the
// relay-once flood of broadcast/relay.hpp.
#pragma once

#include "broadcast/stats.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Which pruning rule drives the 2-hop target computation.
enum class PruningRule : std::uint8_t {
  kDominant,         ///< DP (Lim & Kim)
  kPartialDominant,  ///< PDP (Lou & Wu)
};

/// Simulates one DP/PDP broadcast from `source`.
BroadcastStats dominant_pruning_broadcast(const graph::Graph& g,
                                          NodeId source, PruningRule rule);

}  // namespace manet::broadcast
