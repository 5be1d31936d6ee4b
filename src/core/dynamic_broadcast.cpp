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
  // Per-broadcast scratch reused by every head: the selection bitsets,
  // the pruning-exclusion marks and the pruned coverage. Each head leaves
  // the bitsets clean, so a broadcast zero-fills them once, not per head.
  SelectionScratch selection;
  graph::NodeBitset excluded;
  Coverage remaining;

  Session(const graph::Graph& graph, const DynamicBackbone& backbone,
          const DynamicBroadcastOptions& opts)
      : g(graph), bb(backbone), options(opts), excluded(graph.order()) {
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
  /// heard it from, `upstream` the head whose selection rode on the
  /// packet (its coverage C(u) is pruned along with u itself).
  void head_process(NodeId h, NodeId relay, NodeId upstream) {
    if (head_processed[h]) return;
    head_processed[h] = 1;

    // Mark C(u) ∪ {u} and the relay's adjacent heads, keep the part of
    // C(h) left unmarked, then unmark through the same lists:
    // O(|C(h)| + |C(u)| + |N(r)|) instead of four set differences.
    const bool piggyback =
        options.piggyback_pruning && upstream != kInvalidNode;
    const bool exclude_relay = options.relay_exclusion &&
                               relay != kInvalidNode &&
                               !bb.clustering.is_head(relay);
    const auto mark = [&](bool on) {
      const auto flip = [&](NodeId v) {
        if (on) {
          excluded.set(v);
        } else {
          excluded.reset(v);
        }
      };
      if (piggyback) {
        for (const NodeId v : bb.coverage[upstream].two_hop) flip(v);
        for (const NodeId v : bb.coverage[upstream].three_hop) flip(v);
        flip(upstream);
      }
      // Heads adjacent to the relay heard its transmission too.
      if (exclude_relay)
        for (const NodeId v : bb.tables.ch_hop1[relay]) flip(v);
    };
    const auto keep = [&](const NodeSet& from, NodeSet& into) {
      into.clear();
      for (const NodeId v : from)
        if (!excluded.test(v)) into.push_back(v);
    };
    mark(true);
    keep(bb.coverage[h].two_hop, remaining.two_hop);
    keep(bb.coverage[h].three_hop, remaining.three_hop);
    mark(false);

    const auto sel = select_gateways(g, bb.clustering, bb.tables, h,
                                     remaining, selection);
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
      head_process(receiver, t.sender, t.origin_head);
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
      head_process(source, kInvalidNode, kInvalidNode);
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
