// The shared mobility front-end of the churn experiments: a connected
// unit-disk layout, a mobility model, and per-tick mover sampling, all
// on fixed rng streams derived from ChurnConfig::seed. Every consumer
// constructed from the same config replays a bit-identical move
// sequence — which is what lets run_msg_churn drive the message-driven
// maintenance engine (src/proto) and the snapshot-driven incremental
// pipeline (src/incr) over the *same* trajectory and demand state-hash
// equality after every tick.
#pragma once

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "exp/churn.hpp"
#include "geom/point.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/waypoint.hpp"

namespace manet::exp {

class MobilityMix {
 public:
  /// Generates the layout (rejection-sampling for connectivity, with the
  /// config's attempt budget and require_connected policy) and seats the
  /// mobility model. Throws like run_churn on an exhausted budget.
  explicit MobilityMix(const ChurnConfig& config);

  /// Current node positions (updated in place by advance()).
  const std::vector<geom::Point>& positions() const;
  /// Unit-disk communication range of the layout.
  double range() const { return range_; }
  bool connected() const { return connected_; }
  std::size_t connect_attempts_used() const { return attempts_used_; }
  /// Default movers per tick (ceil-ish of move_fraction * n, min 1).
  std::size_t movers_per_tick() const { return movers_per_tick_; }

  /// Samples `movers` distinct nodes (partial Fisher–Yates over all
  /// ids — the same stream run_churn consumes) and steps them one time
  /// unit forward. The returned span is valid until the next advance().
  std::span<const NodeId> advance(std::size_t movers);
  std::span<const NodeId> advance() { return advance(movers_per_tick_); }

 private:
  using Mover =
      std::variant<mobility::WaypointModel, mobility::RandomDirectionModel>;

  double range_ = 0.0;
  bool connected_ = false;
  std::size_t attempts_used_ = 0;
  std::size_t movers_per_tick_ = 0;
  std::optional<Mover> mover_;  ///< engaged by the ctor (deferred init)
  Rng sample_rng_;
  std::vector<NodeId> ids_;
};

}  // namespace manet::exp
