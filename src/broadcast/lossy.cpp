#include "broadcast/lossy.hpp"

#include "broadcast/relay.hpp"

namespace manet::broadcast {

BroadcastStats flood_lossy(const graph::Graph& g, NodeId source,
                           const LossModel& model, Rng& rng) {
  return relay_flood(g, source, "lossy", always_relay, &model, &rng);
}

BroadcastStats si_cds_broadcast_lossy(const graph::Graph& g,
                                      const NodeSet& cds, NodeId source,
                                      const LossModel& model, Rng& rng) {
  return relay_flood(g, source, "lossy", members_relay(g, cds), &model,
                     &rng);
}

BroadcastStats mpr_broadcast_lossy(const graph::Graph& g,
                                   const std::vector<NodeSet>& mpr,
                                   NodeId source, const LossModel& model,
                                   Rng& rng) {
  return relay_flood(g, source, "lossy", mpr_relay(g, mpr), &model, &rng);
}

}  // namespace manet::broadcast
