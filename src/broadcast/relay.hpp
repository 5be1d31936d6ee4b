// The relay-once flood every rule-driven broadcast protocol runs on.
//
// SI-CDS broadcasting (paper §3) and the §2 baselines — blind flooding,
// DP/PDP, MPR and the Pagani–Rossi forwarding tree — are one algorithm:
// the source transmits, every node hears each transmission of a
// neighbour, and a node transmits at most once. They differ only in the
// rule that decides who relays. relay_flood() runs that flood (FIFO, so
// first copies arrive in hop order) and owns all of the bookkeeping; a
// protocol supplies the rule:
//
//   relays(sender, receiver) -> bool
//
// asked once per delivery to a receiver that is not yet scheduled to
// transmit; true schedules it. A rule that ignores `sender` is therefore
// asked on the receiver's first copy and decides for good; a
// sender-dependent rule (MPR, DP/PDP) is asked again on later copies
// until some sender selects the receiver.
//
// With a loss model each (transmission, receiver) delivery independently
// fails with probability `loss`, drawn from `rng` in transmission order,
// then in neighbour order; a lost copy is never shown to the rule.
#pragma once

#include <string_view>
#include <vector>

#include "broadcast/lossy.hpp"
#include "broadcast/stats.hpp"
#include "common/assert.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Runs the relay-once flood from `source` and finalizes the stats under
/// `protocol`'s metric label. `model` and `rng` are both set for a lossy
/// channel and both null for the ideal one.
template <typename Rule>
BroadcastStats relay_flood(const graph::Graph& g, NodeId source,
                           std::string_view protocol, Rule&& relays,
                           const LossModel* model = nullptr,
                           Rng* rng = nullptr) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  if (model != nullptr)
    MANET_REQUIRE(model->loss >= 0.0 && model->loss < 1.0,
                  "loss probability must be in [0, 1)");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::vector<char> scheduled(g.order(), 0);
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  scheduled[source] = 1;
  // Every scheduled node transmits exactly once, so the transmission
  // order is the FIFO queue itself: forward_nodes, read from the front.
  stats.forward_nodes.push_back(source);
  for (std::size_t next = 0; next < stats.forward_nodes.size(); ++next) {
    const NodeId v = stats.forward_nodes[next];
    for (NodeId w : g.neighbors(v)) {
      if (model != nullptr && rng->chance(model->loss)) continue;
      if (!stats.received[w]) {
        stats.received[w] = 1;
        stats.first_copy_hops[w] = stats.first_copy_hops[v] + 1;
      }
      if (!scheduled[w] && relays(v, w)) {
        scheduled[w] = 1;
        stats.forward_nodes.push_back(w);
      }
    }
  }
  stats.transmissions = stats.forward_nodes.size();
  finalize(stats, protocol);
  return stats;
}

// Rules shared by an ideal-channel protocol and its lossy version live
// here, so the two cannot relay by different rules.

/// Blind flooding's rule: every node relays.
inline constexpr auto always_relay = [](NodeId, NodeId) { return true; };

/// MPR's rule: a node relays on a copy from any neighbour that selected
/// it as an MPR, not only on its first copy.
inline auto mpr_relay(const graph::Graph& g, const std::vector<NodeSet>& mpr) {
  MANET_REQUIRE(mpr.size() == g.order(), "mpr table does not match graph");
  return [&mpr](NodeId v, NodeId w) { return contains_sorted(mpr[v], w); };
}

/// The rule of the protocols where a fixed node set relays (SI-CDS, the
/// forwarding tree): exactly the nodes of `relays` do. Ids outside the
/// graph are ignored. A flag per node, since the rule is asked on every
/// delivery to an unscheduled node and a search of `relays` there would
/// cost more than the rest of the flood.
inline auto members_relay(const graph::Graph& g, const NodeSet& relays) {
  std::vector<char> member(g.order(), 0);
  for (NodeId v : relays)
    if (v < g.order()) member[v] = 1;
  return [member = std::move(member)](NodeId, NodeId w) {
    return member[w] != 0;
  };
}

}  // namespace manet::broadcast
