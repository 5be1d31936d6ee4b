#include "exp/mobility_mix.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "geom/unit_disk.hpp"

namespace manet::exp {

MobilityMix::MobilityMix(const ChurnConfig& config) {
  MANET_REQUIRE(config.nodes >= 2, "churn run needs at least two nodes");
  MANET_REQUIRE(config.move_fraction > 0.0 && config.move_fraction <= 1.0,
                "move fraction must be in (0, 1]");

  const std::size_t n = config.nodes;
  geom::UnitDiskConfig net;
  net.width = config.width;
  net.height = config.height;
  net.nodes = n;
  net.range = geom::range_for_average_degree(config.degree, n, config.width,
                                             config.height);
  range_ = net.range;
  Rng topo_rng(derive_seed(config.seed, 0, 0));
  // Prefer a connected start (the paper's filter), but don't insist
  // unless asked: at large sparse settings full connectivity is
  // vanishingly rare, and both engines maintain disconnected topologies
  // just as well (clusters and coverage are per-component anyway).
  const std::size_t attempt_budget =
      std::max<std::size_t>(1, config.connect_attempts);
  const auto reject_connectivity = [&] {
    MANET_REQUIRE(!config.require_connected,
                  "churn: no connected topology in " +
                      std::to_string(attempt_budget) + " attempts (n=" +
                      std::to_string(n) + ", degree=" +
                      std::to_string(config.degree) +
                      ") — raise connect_attempts, raise the degree, or "
                      "drop require_connected");
  };
  std::vector<geom::Point> layout;
  if (config.streaming_placement) {
    // Streaming cold start: placement lands cell-major straight out of
    // the rng, and each rejection-sampling attempt checks connectivity
    // with a union-find sweep instead of a throwaway graph build. On an
    // exhausted budget the last attempt's layout is kept (one draw
    // fewer than the non-streaming path — a different stream anyway).
    for (attempts_used_ = 0; attempts_used_ < attempt_budget && !connected_;) {
      layout = geom::generate_unit_disk_cell_order(net, topo_rng);
      ++attempts_used_;
      connected_ = geom::unit_disk_connected(layout, net.range, config.grid);
    }
    if (!connected_) reject_connectivity();
  } else {
    auto network = geom::generate_connected_unit_disk(net, topo_rng,
                                                      attempt_budget,
                                                      &attempts_used_);
    connected_ = network.has_value();
    if (!network) {
      reject_connectivity();
      network = geom::generate_unit_disk(net, topo_rng);
    }
    layout = std::move(network->positions);
    if (config.cell_order)
      layout = geom::cell_order_layout(layout, net.range, config.grid);
  }

  Rng mover_rng(derive_seed(config.seed, 0, 1));
  if (config.model == ChurnConfig::Model::kWaypoint) {
    mobility::WaypointConfig mc;
    mc.width = config.width;
    mc.height = config.height;
    mover_.emplace(std::in_place_type<mobility::WaypointModel>,
                   std::move(layout), mc, mover_rng);
  } else {
    mobility::RandomDirectionConfig mc;
    mc.width = config.width;
    mc.height = config.height;
    mover_.emplace(std::in_place_type<mobility::RandomDirectionModel>,
                   std::move(layout), mc, mover_rng);
  }
  sample_rng_ = Rng(derive_seed(config.seed, 0, 2));

  movers_per_tick_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config.move_fraction * static_cast<double>(n))));
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ids_[i] = static_cast<NodeId>(i);
}

const std::vector<geom::Point>& MobilityMix::positions() const {
  return std::visit(
      [](const auto& m) -> const std::vector<geom::Point>& {
        return m.positions();
      },
      *mover_);
}

std::span<const NodeId> MobilityMix::advance(std::size_t movers) {
  const std::size_t n = ids_.size();
  movers = std::min(movers, n);
  for (std::size_t j = 0; j < movers; ++j) {
    const std::size_t k =
        j + static_cast<std::size_t>(sample_rng_.below(n - j));
    std::swap(ids_[j], ids_[k]);
  }
  const std::span<const NodeId> moved(ids_.data(), movers);
  std::visit([&](auto& m) { m.step_nodes(moved, 1.0); }, *mover_);
  return moved;
}

}  // namespace manet::exp
