#include "broadcast/si_cds.hpp"

#include "broadcast/relay.hpp"

namespace manet::broadcast {

BroadcastStats si_cds_broadcast(const graph::Graph& g, const NodeSet& cds,
                                NodeId source) {
  return relay_flood(g, source, "si_cds", members_relay(g, cds));
}

}  // namespace manet::broadcast
