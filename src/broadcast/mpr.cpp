#include "broadcast/mpr.hpp"

#include <sstream>

#include "broadcast/relay.hpp"
#include "common/assert.hpp"

namespace manet::broadcast {

std::vector<NodeSet> compute_mpr_sets(const graph::Graph& g) {
  const std::size_t n = g.order();
  std::vector<NodeSet> mpr(n);
  for (NodeId v = 0; v < n; ++v) {
    // Open 2-hop neighborhood: reachable via a neighbor, not in N[v].
    NodeSet two_hop;
    for (NodeId w : g.neighbors(v))
      for (NodeId x : g.neighbors(w))
        if (x != v && !g.has_edge(v, x)) insert_sorted(two_hop, x);

    NodeSet uncovered = two_hop;
    auto cover_with = [&](NodeId w) {
      insert_sorted(mpr[v], w);
      for (NodeId x : g.neighbors(w)) erase_sorted(uncovered, x);
    };

    // Step 1: neighbors that are the only path to some 2-hop node.
    for (NodeId x : two_hop) {
      NodeId sole = kInvalidNode;
      int reachers = 0;
      for (NodeId w : g.neighbors(v)) {
        if (g.has_edge(w, x)) {
          ++reachers;
          sole = w;
          if (reachers > 1) break;
        }
      }
      if (reachers == 1 && !contains_sorted(mpr[v], sole)) cover_with(sole);
    }

    // Step 2: greedy max-cover on the rest.
    while (!uncovered.empty()) {
      NodeId best = kInvalidNode;
      std::size_t best_gain = 0;
      for (NodeId w : g.neighbors(v)) {
        if (contains_sorted(mpr[v], w)) continue;
        std::size_t gain = 0;
        for (NodeId x : g.neighbors(w))
          if (contains_sorted(uncovered, x)) ++gain;
        if (gain > best_gain) {
          best_gain = gain;
          best = w;
        }
      }
      MANET_ASSERT(best != kInvalidNode,
                   "every 2-hop node is reachable via some neighbor");
      cover_with(best);
    }
  }
  return mpr;
}

std::string validate_mpr_sets(const graph::Graph& g,
                              const std::vector<NodeSet>& mpr) {
  std::ostringstream err;
  if (mpr.size() != g.order()) {
    err << "mpr table size mismatch";
    return err.str();
  }
  for (NodeId v = 0; v < g.order(); ++v) {
    for (NodeId w : mpr[v]) {
      if (!g.has_edge(v, w)) {
        err << "mpr[" << v << "] contains non-neighbor " << w;
        return err.str();
      }
    }
    for (NodeId w : g.neighbors(v)) {
      for (NodeId x : g.neighbors(w)) {
        if (x == v || g.has_edge(v, x)) continue;
        bool covered = false;
        for (NodeId m : mpr[v])
          if (g.has_edge(m, x)) covered = true;
        if (!covered) {
          err << "2-hop node " << x << " of " << v << " uncovered";
          return err.str();
        }
      }
    }
  }
  return {};
}

BroadcastStats mpr_broadcast(const graph::Graph& g,
                             const std::vector<NodeSet>& mpr,
                             NodeId source) {
  return relay_flood(g, source, "mpr", mpr_relay(g, mpr));
}

BroadcastStats mpr_broadcast(const graph::Graph& g, NodeId source) {
  return mpr_broadcast(g, compute_mpr_sets(g), source);
}

}  // namespace manet::broadcast
