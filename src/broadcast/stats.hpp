// Common result type for every broadcast protocol in the zoo.
//
// All protocols report the same metrics the paper (and its related work)
// evaluates on: the forward-node set, delivery, and the transmission
// count. Keeping one struct makes the comparison benches trivially
// uniform.
#pragma once

#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Outcome of one simulated broadcast.
struct BroadcastStats {
  NodeSet forward_nodes;        ///< nodes that transmitted at least once
  std::size_t transmissions = 0;  ///< total transmissions (>= forward set)
  std::vector<char> received;   ///< per-node delivery flags
  bool delivered_all = false;
  /// Relay-hop distance from the source at which each node got its first
  /// copy (0 for the source, kUnreachableHops if never reached).
  std::vector<std::uint32_t> first_copy_hops;

  std::size_t forward_count() const { return forward_nodes.size(); }
  double delivery_ratio() const;
  /// Largest first-copy hop count among reached nodes (the broadcast's
  /// latency in relay hops); 0 when the stats carry no hop data.
  std::uint32_t latency_hops() const;
};

/// Sentinel in first_copy_hops for nodes the broadcast never reached.
inline constexpr std::uint32_t kUnreachableHops = ~std::uint32_t{0};

/// Sorts `forward_nodes` (protocols append transmitters in send order)
/// and fills `delivered_all`. Shared by the protocol implementations.
void finalize(BroadcastStats& stats);

/// finalize() plus ambient instrumentation: records the run into the
/// process-wide obs registry under `broadcast.<protocol>.*` counters and
/// the shared forward-set/delivery/latency histograms. A no-op when the
/// observability layer is compiled out.
void finalize(BroadcastStats& stats, std::string_view protocol);

/// Records an already-finalized run into the global registry (what the
/// two-argument finalize() does after the bookkeeping). Exposed for
/// callers that aggregate stats themselves.
void record_run(std::string_view protocol, const BroadcastStats& stats);

}  // namespace manet::broadcast
