#include "broadcast/flooding.hpp"

#include "broadcast/relay.hpp"

namespace manet::broadcast {

BroadcastStats flood(const graph::Graph& g, NodeId source) {
  return relay_flood(g, source, "flooding", always_relay);
}

}  // namespace manet::broadcast
