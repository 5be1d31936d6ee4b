#include "broadcast/suppression.hpp"

#include <map>

#include "common/assert.hpp"

namespace manet::broadcast {

BroadcastStats suppression_flood(const graph::Graph& g, NodeId source,
                                 const SuppressionOptions& options,
                                 Rng& rng) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  MANET_REQUIRE(options.max_backoff_slots >= 1,
                "backoff needs at least one slot");
  const std::size_t n = g.order();

  BroadcastStats stats;
  stats.received.assign(n, 0);
  stats.first_copy_hops.assign(n, kUnreachableHops);
  // covered[v]: v is known (to itself) to have received the packet —
  // either directly, or inferred from a piggybacked neighbor list. Each
  // node tracks which of *its neighbors* are covered.
  std::vector<NodeSet> neighbors_covered(n);
  std::vector<char> scheduled(n, 0);
  std::vector<char> transmitted(n, 0);
  // slot -> transmitting nodes.
  std::map<std::uint32_t, NodeSet> agenda;

  auto all_neighbors_covered = [&](NodeId v) {
    return neighbors_covered[v].size() == g.degree(v);
  };

  auto hear = [&](NodeId v, NodeId sender, std::uint32_t slot) {
    const bool first_copy = !stats.received[v];
    if (first_copy)
      stats.first_copy_hops[v] = stats.first_copy_hops[sender] + 1;
    stats.received[v] = 1;
    if (g.has_edge(v, sender))
      insert_sorted(neighbors_covered[v], sender);
    if (options.piggyback_neighbors) {
      // The sender's neighbor list rides on the packet: everything
      // adjacent to the sender now provably holds a copy.
      for (NodeId w : g.neighbors(sender))
        if (g.has_edge(v, w)) insert_sorted(neighbors_covered[v], w);
    }
    if (first_copy && !scheduled[v]) {
      scheduled[v] = 1;
      const auto delay =
          static_cast<std::uint32_t>(rng.between(
              1, static_cast<std::int64_t>(options.max_backoff_slots)));
      insert_sorted(agenda[slot + delay], v);
    }
  };

  // The source transmits at slot 0 unconditionally.
  stats.received[source] = 1;
  stats.first_copy_hops[source] = 0;
  scheduled[source] = 1;
  insert_sorted(agenda[0], source);

  while (!agenda.empty()) {
    const auto [slot, senders] = *agenda.begin();
    agenda.erase(agenda.begin());
    // Same-slot transmissions are simultaneous: resignation decisions see
    // only what was heard in *earlier* slots, then all of this slot's
    // transmissions land together.
    NodeSet firing;
    for (NodeId v : senders) {
      if (transmitted[v]) continue;
      // The resignation check of the paper: if every neighbor provably
      // received the packet while we were backing off, stay quiet.
      if (v != source && all_neighbors_covered(v)) continue;
      firing.push_back(v);
    }
    for (NodeId v : firing) {
      transmitted[v] = 1;
      stats.forward_nodes.push_back(v);
      ++stats.transmissions;
    }
    for (NodeId v : firing)
      for (NodeId w : g.neighbors(v)) hear(w, v, slot);
  }
  finalize(stats, "suppression");
  return stats;
}

}  // namespace manet::broadcast
