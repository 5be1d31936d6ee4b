#include "broadcast/forwarding_tree.hpp"

#include <deque>
#include <sstream>

#include "broadcast/relay.hpp"
#include "common/assert.hpp"
#include "core/coverage.hpp"

namespace manet::broadcast {

ForwardingTree build_forwarding_tree(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     const core::NeighborTables& tables,
                                     NodeId source) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  ForwardingTree tree;
  tree.parent.assign(g.order(), kInvalidNode);
  tree.root_head = c.head_of[source];

  auto join = [&](NodeId v, NodeId parent) {
    if (contains_sorted(tree.members, v)) return false;
    insert_sorted(tree.members, v);
    tree.parent[v] = parent;
    return true;
  };

  join(tree.root_head, kInvalidNode);
  std::deque<NodeId> frontier{tree.root_head};
  std::vector<char> head_joined(g.order(), 0);
  head_joined[tree.root_head] = 1;

  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const auto cov = core::build_coverage(g, c, tables, u);
    // 2-hop neighbors first (head, gateway, head): attach each unjoined
    // head w through the smallest connecting neighbor of u.
    for (NodeId w : cov.two_hop) {
      if (head_joined[w]) continue;
      NodeId connector = kInvalidNode;
      for (NodeId v : g.neighbors(u)) {
        if (g.has_edge(v, w)) {
          connector = v;  // ascending order -> smallest id
          break;
        }
      }
      MANET_ASSERT(connector != kInvalidNode, "2-hop head needs a witness");
      join(connector, u);
      join(w, connector);
      head_joined[w] = 1;
      frontier.push_back(w);
    }
    // 3-hop neighbors via a gateway pair.
    for (NodeId w : cov.three_hop) {
      if (head_joined[w]) continue;
      NodeId first = kInvalidNode, second = kInvalidNode;
      for (NodeId v : g.neighbors(u)) {
        for (const auto& e : tables.ch_hop2[v]) {
          if (e.head != w) continue;
          if (first == kInvalidNode || v < first ||
              (v == first && e.via < second)) {
            first = v;
            second = e.via;
          }
        }
      }
      MANET_ASSERT(first != kInvalidNode, "3-hop head needs a witness pair");
      join(first, u);
      // The second-hop gateway hangs off the first; if either gateway
      // already joined through another branch it keeps its old parent —
      // the physical edges still exist, so w's attachment stays valid.
      join(second, first);
      join(w, second);
      head_joined[w] = 1;
      frontier.push_back(w);
    }
  }
  return tree;
}

std::string validate_forwarding_tree(const graph::Graph& g,
                                     const cluster::Clustering& c,
                                     const ForwardingTree& tree) {
  std::ostringstream err;
  // Every cluster joined.
  for (NodeId h : c.heads) {
    if (!tree.contains(h)) {
      err << "cluster of head " << h << " never joined the tree";
      return err.str();
    }
  }
  // Parent edges are physical links; following parents reaches the root
  // without cycles.
  for (NodeId v : tree.members) {
    if (v == tree.root_head) continue;
    const NodeId p = tree.parent[v];
    if (p == kInvalidNode || !tree.contains(p)) {
      err << "member " << v << " has no tree parent";
      return err.str();
    }
    if (!g.has_edge(v, p)) {
      err << "tree edge " << p << "-" << v << " is not a physical link";
      return err.str();
    }
    std::size_t hops = 0;
    for (NodeId cur = v; cur != tree.root_head; cur = tree.parent[cur]) {
      if (cur == kInvalidNode) {
        err << "broken parent chain above member " << v;
        return err.str();
      }
      if (++hops > tree.members.size()) {
        err << "cycle above member " << v;
        return err.str();
      }
    }
  }
  return {};
}

BroadcastStats forwarding_tree_broadcast(const graph::Graph& g,
                                         const ForwardingTree& tree,
                                         NodeId source) {
  return relay_flood(g, source, "forwarding_tree",
                     members_relay(g, tree.members));
}

}  // namespace manet::broadcast
