#include "broadcast/dominant_pruning.hpp"

#include "broadcast/relay.hpp"

namespace manet::broadcast {
namespace {

/// Closed neighborhood N[v] as a sorted set.
NodeSet closed_neighborhood(const graph::Graph& g, NodeId v) {
  const auto nb = g.neighbors(v);
  NodeSet out(nb.begin(), nb.end());
  insert_sorted(out, v);
  return out;
}

/// Greedy max-cover: pick nodes from `candidates` until `targets` is
/// covered or no candidate helps; returns the forward list.
NodeSet greedy_cover(const graph::Graph& g, const NodeSet& candidates,
                     NodeSet targets) {
  NodeSet forward;
  while (!targets.empty()) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId w : candidates) {
      if (contains_sorted(forward, w)) continue;
      NodeSet nw = closed_neighborhood(g, w);
      const std::size_t gain = intersection_size(nw, targets);
      if (gain > best_gain) {  // ties: first (smallest id) wins
        best_gain = gain;
        best = w;
      }
    }
    if (best == kInvalidNode) break;  // leftovers are upstream's duty
    insert_sorted(forward, best);
    targets = set_difference(targets, closed_neighborhood(g, best));
  }
  return forward;
}

/// The forward list `v` piggybacks when it relays the packet it got from
/// `upstream` (kInvalidNode for the source): a greedy cover of v's
/// uncovered 2-hop targets by v's neighbours outside N[upstream].
NodeSet select_forward_list(const graph::Graph& g, PruningRule rule,
                            NodeId v, NodeId upstream) {
  // Upstream's closed neighborhood: empty exclusion for the source.
  NodeSet n_u;
  if (upstream != kInvalidNode) n_u = closed_neighborhood(g, upstream);
  const NodeSet n_v = closed_neighborhood(g, v);

  // Two-hop targets.
  NodeSet targets;
  for (NodeId x : g.neighbors(v))
    for (NodeId y : g.neighbors(x)) insert_sorted(targets, y);
  targets = set_difference(targets, n_u);
  targets = set_difference(targets, n_v);
  if (rule == PruningRule::kPartialDominant && upstream != kInvalidNode) {
    // N(N(u) ∩ N(v)): neighbors of the common neighbors.
    const NodeSet common = set_intersection(
        NodeSet(g.neighbors(upstream).begin(), g.neighbors(upstream).end()),
        NodeSet(g.neighbors(v).begin(), g.neighbors(v).end()));
    NodeSet extra;
    for (NodeId w : common)
      for (NodeId y : g.neighbors(w)) insert_sorted(extra, y);
    targets = set_difference(targets, extra);
  }

  // Candidate relays: v's neighbors outside N[u].
  NodeSet candidates(g.neighbors(v).begin(), g.neighbors(v).end());
  candidates = set_difference(candidates, n_u);
  return greedy_cover(g, candidates, std::move(targets));
}

}  // namespace

BroadcastStats dominant_pruning_broadcast(const graph::Graph& g,
                                          NodeId source, PruningRule rule) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  std::vector<NodeSet> forward_list(g.order());
  forward_list[source] = select_forward_list(g, rule, source, kInvalidNode);
  // A named node relays once, on the first packet that names it — even if
  // an unnamed copy arrived earlier (otherwise the selector's coverage
  // obligation would silently break). It selects its own list then.
  return relay_flood(g, source, "dominant_pruning", [&](NodeId u, NodeId w) {
    if (!contains_sorted(forward_list[u], w)) return false;
    forward_list[w] = select_forward_list(g, rule, w, u);
    return true;
  });
}

}  // namespace manet::broadcast
