#include "broadcast/passive_clustering.hpp"

#include <algorithm>
#include <deque>

#include "common/assert.hpp"

namespace manet::broadcast {

PassiveClusteringSession::PassiveClusteringSession(std::size_t order)
    : states_(order, PassiveState::kCandidate), heard_heads_(order) {}

std::size_t PassiveClusteringSession::clusterhead_count() const {
  return static_cast<std::size_t>(std::count(
      states_.begin(), states_.end(), PassiveState::kClusterhead));
}

std::size_t PassiveClusteringSession::gateway_count() const {
  return static_cast<std::size_t>(
      std::count(states_.begin(), states_.end(), PassiveState::kGateway));
}

void PassiveClusteringSession::refresh_state(NodeId v) {
  if (states_[v] == PassiveState::kClusterhead) return;
  if (heard_heads_[v].size() >= 2)
    states_[v] = PassiveState::kGateway;
  else if (heard_heads_[v].size() == 1)
    states_[v] = PassiveState::kOrdinary;
}

BroadcastStats PassiveClusteringSession::broadcast(const graph::Graph& g,
                                                   NodeId source) {
  MANET_REQUIRE(g.order() == states_.size(),
                "snapshot does not match the session's node population");
  MANET_REQUIRE(source < g.order(), "source out of range");
  BroadcastStats stats;
  stats.received.assign(g.order(), 0);
  stats.first_copy_hops.assign(g.order(), kUnreachableHops);
  std::vector<char> scheduled(g.order(), 0);
  std::deque<NodeId> queue{source};
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  scheduled[source] = 1;

  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    // First declaration wins: a successful transmission with no
    // clusterhead overheard turns a candidate into a clusterhead.
    if (states_[v] == PassiveState::kCandidate && heard_heads_[v].empty())
      states_[v] = PassiveState::kClusterhead;

    stats.forward_nodes.push_back(v);
    ++stats.transmissions;
    for (NodeId w : g.neighbors(v)) {
      const bool first_copy = !stats.received[w];
      if (first_copy)
        stats.first_copy_hops[w] = stats.first_copy_hops[v] + 1;
      stats.received[w] = 1;
      // Relay decision is made at receipt, against the state the node
      // held *before* this packet's own clusterhead claim lands —
      // ordinary nodes resign their relay role, everyone else commits.
      // State transitions triggered by this packet constrain only later
      // packets, matching the no-setup-phase behavior of the protocol
      // (the very first flood therefore propagates like blind flooding
      // while the structure forms).
      if (first_copy && !scheduled[w] &&
          states_[w] != PassiveState::kOrdinary) {
        scheduled[w] = 1;
        queue.push_back(w);
      }
      if (states_[v] == PassiveState::kClusterhead) {
        insert_sorted(heard_heads_[w], v);
        refresh_state(w);
      }
    }
  }
  finalize(stats, "passive_clustering");
  return stats;
}

}  // namespace manet::broadcast
