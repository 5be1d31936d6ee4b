#include "proto/construction.hpp"

#include <memory>

#include "common/assert.hpp"

namespace manet::proto {

ConstructionNetwork::ConstructionNetwork(const graph::Graph& g,
                                         core::CoverageMode mode)
    : sim_(g, [this, mode, n = g.order()](NodeId v) {
        auto node = std::make_unique<MaintenanceNode>(v, mode, n, &ledger_,
                                                      &scratch_, &store_);
        node->cold_start();
        return node;
      }) {}

DistributedRun run_distributed_backbone(const graph::Graph& g,
                                        core::CoverageMode mode) {
  ConstructionNetwork net(g, mode);
  DistributedRun run;
  run.rounds = net.simulator().run();
  run.counts = net.simulator().counts();
  run.delivery = net.simulator().delivery_stats();

  run.tables.mode = mode;
  // Heads hold no rows and members no coverage or selection, exactly as
  // in the centralized structures.
  for (NodeId v = 0; v < g.order(); ++v) {
    const MaintenanceNode& node = net.node(v);
    MANET_ASSERT(node.decided(), "protocol quiesced with undecided node");
    run.clustering.head_of.push_back(node.head());
    run.clustering.roles.push_back(node.role());
    if (node.is_head()) run.clustering.heads.push_back(v);
    run.tables.ch_hop1.push_back(node.hop1_row());
    run.tables.ch_hop2.push_back(node.hop2_row());
    run.coverage.push_back({node.coverage_two_hop(), node.coverage_three_hop()});
    run.selection.emplace_back().gateways = node.selection_gateways();
    if (node.is_head() || node.gateway_flag()) run.backbone.push_back(v);
  }
  return run;
}

DistributedBroadcast run_distributed_broadcast(const graph::Graph& g,
                                               core::CoverageMode mode,
                                               NodeId source) {
  MANET_REQUIRE(source < g.order(), "source out of range");
  ConstructionNetwork net(g, mode);
  net::Simulator& sim = net.simulator();
  sim.run();  // construction phase to quiescence
  sim.inject(source, net.node(source).make_broadcast_packet());
  DistributedBroadcast result;
  result.rounds = sim.run();  // broadcast phase
  result.data_messages = sim.counts().data;

  result.delivered_all = true;
  for (NodeId v = 0; v < g.order(); ++v) {
    const MaintenanceNode& node = net.node(v);
    result.delivered_all = result.delivered_all && node.data_received();
    if (node.data_forwarded()) result.forward_nodes.push_back(v);
  }
  return result;
}

}  // namespace manet::proto
