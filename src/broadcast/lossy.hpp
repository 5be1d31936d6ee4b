// Lossy-channel robustness layer.
//
// The paper (like most CDS work) assumes an ideal MAC; a classic
// criticism of backbone broadcasting is that pruning trades robustness
// for efficiency. This module re-runs flooding / SI-CDS / MPR broadcasts
// on a channel where each (transmission, receiver) delivery independently
// fails with probability `loss`, so the robustness bench can quantify
// that trade-off. Each runs the relay-once flood (broadcast/relay.hpp)
// with the same relay rule as its ideal-channel version, so at loss 0 it
// reproduces that run exactly; all three record under the `lossy` label.
#pragma once

#include <vector>

#include "broadcast/stats.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace manet::broadcast {

/// Per-delivery loss model: every receiver of every transmission misses
/// it independently with probability `loss`.
struct LossModel {
  double loss = 0.0;
};

/// Blind flooding over the lossy channel.
BroadcastStats flood_lossy(const graph::Graph& g, NodeId source,
                           const LossModel& model, Rng& rng);

/// SI-CDS broadcast over the lossy channel (only `cds` members relay).
BroadcastStats si_cds_broadcast_lossy(const graph::Graph& g,
                                      const NodeSet& cds, NodeId source,
                                      const LossModel& model, Rng& rng);

/// MPR broadcast over the lossy channel.
BroadcastStats mpr_broadcast_lossy(const graph::Graph& g,
                                   const std::vector<NodeSet>& mpr,
                                   NodeId source, const LossModel& model,
                                   Rng& rng);

}  // namespace manet::broadcast
