// The distributed backbone construction (paper §3) run end to end: a
// network of cold-started MaintenanceNodes over a fixed graph, driven by
// received messages and the round clock alone (no global knowledge):
//   1. HELLO        — neighbor discovery; neighbor sets known at round 1.
//   2. clustering   — CLUSTER_HEAD / NON_CLUSTER_HEAD, lowest id first.
//   3. CH_HOP1      — a non-head's adjacent heads.
//   4. CH_HOP2      — its 2-hop heads (contents depend on the mode).
//   5. selection    — a head builds its coverage, runs the shared greedy
//                     and sends GATEWAY with TTL 2.
//   6. gateway      — selected nodes join the backbone and forward the
//                     GATEWAY message once per origin.
// After quiescence a source can hand the network an SD-CDS DATA packet.
//
// The integration tests assert that the emergent clustering, tables,
// coverage sets, selections and backbone equal the centralized reference
// for every topology tried, and the message totals back the paper's
// O(n) communication-complexity claim.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "core/coverage.hpp"
#include "core/gateway_selection.hpp"
#include "core/neighbor_tables.hpp"
#include "graph/graph.hpp"
#include "net/simulator.hpp"
#include "proto/node.hpp"
#include "proto/row_store.hpp"

namespace manet::proto {

/// One cold-started MaintenanceNode per vertex of `g` on an every-node
/// simulator, sharing one row store, ledger and kernel scratch (the
/// construction runs on a single lane). `g` must outlive the network.
class ConstructionNetwork {
 public:
  ConstructionNetwork(const graph::Graph& g, core::CoverageMode mode);

  net::Simulator& simulator() { return sim_; }
  MaintenanceNode& node(NodeId v) {
    return static_cast<MaintenanceNode&>(sim_.process(v));
  }

 private:
  RowStore store_;
  Ledger ledger_;
  KernelScratch scratch_;
  net::Simulator sim_;
};

/// Everything the distributed run produces, reassembled for comparison
/// with the centralized pipeline (selections carry the gateway set only).
struct DistributedRun {
  cluster::Clustering clustering;
  core::NeighborTables tables;
  std::vector<core::Coverage> coverage;             ///< indexed by node id
  std::vector<core::GatewaySelection> selection;    ///< indexed by node id
  NodeSet backbone;                                 ///< heads + informed gateways
  net::MessageCounts counts;
  net::DeliveryStats delivery;
  std::uint32_t rounds = 0;
};

/// Runs the construction on `g` and reads the results off the nodes.
DistributedRun run_distributed_backbone(const graph::Graph& g,
                                        core::CoverageMode mode);

/// Result of one message-level SD-CDS data broadcast.
struct DistributedBroadcast {
  NodeSet forward_nodes;  ///< nodes that transmitted the data packet
  bool delivered_all = false;
  std::size_t data_messages = 0;
  std::uint32_t rounds = 0;  ///< rounds the broadcast phase took
};

/// Runs the construction and then one data broadcast from `source`, all
/// through the message simulator (the fully distributed counterpart of
/// core::dynamic_broadcast).
DistributedBroadcast run_distributed_broadcast(const graph::Graph& g,
                                               core::CoverageMode mode,
                                               NodeId source);

}  // namespace manet::proto
