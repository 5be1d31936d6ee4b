#include "core/dynamic_broadcast.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/assert.hpp"

namespace manet::core {
namespace {

/// Per-broadcast mutable state.
struct Session {
  const graph::Graph& g;
  const DynamicBackbone& bb;
  const DynamicBroadcastOptions& options;
  BroadcastResult result;
  /// Origins each non-head has already relayed for. A node relays at most
  /// once per origin: refusing the second origin outright could strand
  /// that origin's second-hop relays (they learn their forward-node role
  /// only from the first hop's relay), while relaying per-origin keeps
  /// the total transmission count linear and delivery airtight. The
  /// forward-node *set* — the paper's metric — still counts a node once.
  std::vector<NodeSet> relayed_origins;
  std::vector<char> head_processed;
  std::deque<Transmission> queue;

  Session(const graph::Graph& graph, const DynamicBackbone& backbone,
          const DynamicBroadcastOptions& opts)
      : g(graph), bb(backbone), options(opts) {
    result.received.assign(g.order(), 0);
    result.first_copy_hops.assign(g.order(),
                                  std::numeric_limits<std::uint32_t>::max());
    relayed_origins.assign(g.order(), {});
    head_processed.assign(g.order(), 0);
  }

  void transmit(NodeId sender, NodeId origin_head, NodeSet forward_set) {
    const NodeId origin_key =
        origin_head == kInvalidNode ? sender : origin_head;
    if (!insert_sorted(relayed_origins[sender], origin_key)) return;
    result.received[sender] = 1;  // the sender trivially holds the packet
    result.forward_nodes.push_back(sender);
    queue.push_back({sender, origin_head, std::move(forward_set)});
  }

  /// Clusterhead `h` processes its first copy; `relay` is the node it
  /// heard it from, `upstream` / `upstream_coverage` ride on the packet.
  void head_process(NodeId h, NodeId relay, NodeId upstream,
                    const NodeSet& upstream_coverage) {
    if (head_processed[h]) return;
    head_processed[h] = 1;

    Coverage remaining = bb.coverage[h];
    if (options.piggyback_pruning && upstream != kInvalidNode) {
      remaining.two_hop = set_difference(remaining.two_hop,
                                         upstream_coverage);
      remaining.three_hop = set_difference(remaining.three_hop,
                                           upstream_coverage);
      erase_sorted(remaining.two_hop, upstream);
      erase_sorted(remaining.three_hop, upstream);
    }
    if (options.relay_exclusion && relay != kInvalidNode &&
        !bb.clustering.is_head(relay)) {
      // Heads adjacent to the relay heard its transmission too.
      const NodeSet& heard = bb.tables.ch_hop1[relay];
      remaining.two_hop = set_difference(remaining.two_hop, heard);
      remaining.three_hop = set_difference(remaining.three_hop, heard);
    }

    const auto sel =
        select_gateways(g, bb.clustering, bb.tables, h, remaining);
    // Every head locally broadcasts once, even with an empty forward set,
    // to reach its own cluster members.
    transmit(h, h, sel.gateways);
  }

  void deliver(const Transmission& t, NodeId receiver) {
    if (!result.received[receiver])
      result.first_copy_hops[receiver] =
          result.first_copy_hops[t.sender] + 1;
    result.received[receiver] = 1;
    if (bb.clustering.is_head(receiver)) {
      head_process(receiver, t.sender, t.origin_head,
                   t.origin_head == kInvalidNode
                       ? NodeSet{}
                       : bb.coverage[t.origin_head].all());
      return;
    }
    // Forward nodes relay onward; the forward set and origin metadata
    // are carried unchanged by relays (transmit dedups per origin).
    if (contains_sorted(t.forward_set, receiver))
      transmit(receiver, t.origin_head, t.forward_set);
  }

  void run(NodeId source) {
    result.first_copy_hops[source] = 0;
    if (bb.clustering.is_head(source)) {
      head_process(source, kInvalidNode, kInvalidNode, {});
    } else {
      // Step 1: the source hands the packet to its clusterhead. The
      // transmission physically reaches every neighbor.
      transmit(source, kInvalidNode, {});
    }
    while (!queue.empty()) {
      const Transmission t = std::move(queue.front());
      queue.pop_front();
      result.trace.push_back(t);
      for (NodeId nb : g.neighbors(t.sender)) deliver(t, nb);
    }
    // One sort + dedup: a relay transmits once per origin it serves.
    normalize(result.forward_nodes);
    result.delivered_all =
        std::all_of(result.received.begin(), result.received.end(),
                    [](char c) { return c != 0; });
  }
};

}  // namespace

std::uint32_t BroadcastResult::latency_hops() const {
  std::uint32_t worst = 0;
  for (std::uint32_t h : first_copy_hops)
    if (h != std::numeric_limits<std::uint32_t>::max())
      worst = std::max(worst, h);
  return worst;
}

DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       CoverageMode mode) {
  return build_dynamic_backbone(g, cluster::lowest_id_clustering(g), mode);
}

DynamicBackbone build_dynamic_backbone(const graph::Graph& g,
                                       const cluster::Clustering& c,
                                       CoverageMode mode) {
  DynamicBackbone bb;
  bb.mode = mode;
  bb.clustering = c;
  bb.tables = build_neighbor_tables(g, bb.clustering, mode);
  bb.coverage = build_all_coverage(g, bb.clustering, bb.tables);
  return bb;
}

BroadcastResult dynamic_broadcast(const graph::Graph& g,
                                  const DynamicBackbone& backbone,
                                  NodeId source,
                                  const DynamicBroadcastOptions& options) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  MANET_REQUIRE(backbone.clustering.head_of.size() == g.order(),
                "backbone does not match graph");
  Session session(g, backbone, options);
  session.run(source);
  return session.result;
}

}  // namespace manet::core
