// Tests for the §3 suppression techniques (backoff self-pruning and
// neighbor piggybacking) and the lossy-channel broadcast layer.
#include <gtest/gtest.h>

#include "broadcast/flooding.hpp"
#include "broadcast/lossy.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/si_cds.hpp"
#include "broadcast/suppression.hpp"
#include "common/rng.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "paper_fixtures.hpp"
#include "stats/running.hpp"

namespace manet::broadcast {
namespace {

TEST(SuppressionTest, Figure5TriangleBackoffSavesATransmission) {
  // Paper's Figure 5: with random backoff, at most one redundant
  // transmission may be saved — over many rng draws, some runs use 2
  // forwards (w resigns) and none use more than 3.
  const auto g = testing::paper_figure5_triangle();
  Rng rng(5);
  bool saw_saving = false;
  for (int i = 0; i < 50; ++i) {
    const auto s = suppression_flood(g, 0, SuppressionOptions{}, rng);
    EXPECT_TRUE(s.delivered_all);
    EXPECT_GE(s.forward_count(), 1u);
    EXPECT_LE(s.forward_count(), 3u);
    if (s.forward_count() < 3) saw_saving = true;
  }
  EXPECT_TRUE(saw_saving);
}

TEST(SuppressionTest, Figure5TrianglePiggybackSavesBoth) {
  // Second technique: u piggybacks {v, w}; both resign — exactly the
  // "two redundant transmissions are saved" case of the paper.
  const auto g = testing::paper_figure5_triangle();
  SuppressionOptions opts;
  opts.piggyback_neighbors = true;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const auto s = suppression_flood(g, 0, opts, rng);
    EXPECT_TRUE(s.delivered_all);
    EXPECT_EQ(s.forward_count(), 1u);
  }
}

TEST(SuppressionTest, PathCannotSuppressAnything) {
  // On a path every interior node is the sole bridge; nobody can resign.
  const auto g = graph::make_path(6);
  Rng rng(7);
  const auto s = suppression_flood(g, 0, SuppressionOptions{}, rng);
  EXPECT_TRUE(s.delivered_all);
  EXPECT_EQ(s.forward_count(), 5u);
}

TEST(SuppressionTest, AlwaysDeliversAndNeverExceedsFlooding) {
  Rng topo_rng(8);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(10.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    for (bool piggyback : {false, true}) {
      SuppressionOptions opts;
      opts.piggyback_neighbors = piggyback;
      const auto s = suppression_flood(net->graph, 0, opts, rng);
      EXPECT_TRUE(s.delivered_all);
      EXPECT_LE(s.forward_count(), net->graph.order());
    }
  }
}

TEST(SuppressionTest, PiggybackSuppressesAtLeastAsMuchOnAverage) {
  Rng topo_rng(10);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(14.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  Rng rng(11);
  stats::RunningStats backoff_only, with_piggyback;
  for (int i = 0; i < 40; ++i) {
    SuppressionOptions opts;
    backoff_only.add(static_cast<double>(
        suppression_flood(net->graph, 0, opts, rng).forward_count()));
    opts.piggyback_neighbors = true;
    with_piggyback.add(static_cast<double>(
        suppression_flood(net->graph, 0, opts, rng).forward_count()));
  }
  EXPECT_LE(with_piggyback.mean(), backoff_only.mean());
  // Both techniques beat blind flooding on a dense network.
  EXPECT_LT(backoff_only.mean(), 60.0);
}

TEST(SuppressionTest, RejectsBadArguments) {
  const auto g = graph::make_path(3);
  Rng rng(1);
  EXPECT_THROW(suppression_flood(g, 5, SuppressionOptions{}, rng),
               std::invalid_argument);
  SuppressionOptions zero;
  zero.max_backoff_slots = 0;
  EXPECT_THROW(suppression_flood(g, 0, zero, rng), std::invalid_argument);
}

/// A zero-loss run must be the ideal-channel run, field by field.
void expect_same_run(const BroadcastStats& lossy, const BroadcastStats& ideal) {
  EXPECT_EQ(lossy.forward_nodes, ideal.forward_nodes);
  EXPECT_EQ(lossy.transmissions, ideal.transmissions);
  EXPECT_EQ(lossy.first_copy_hops, ideal.first_copy_hops);
  EXPECT_EQ(lossy.received, ideal.received);
  EXPECT_EQ(lossy.delivered_all, ideal.delivered_all);
}

TEST(LossyTest, ZeroLossMatchesIdealChannel) {
  Rng topo_rng(19);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(10.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  const LossModel none{0.0};
  Rng rng(12);
  for (const auto& g : {testing::paper_figure3_network(), net->graph}) {
    const auto bb = core::build_static_backbone(
        g, core::CoverageMode::kTwoPointFiveHop);
    const auto mpr = compute_mpr_sets(g);
    for (NodeId source = 0; source < g.order(); source += 3) {
      SCOPED_TRACE(::testing::Message() << "n=" << g.order()
                                        << " source=" << source);
      const auto flooded = flood_lossy(g, source, none, rng);
      EXPECT_TRUE(flooded.delivered_all);
      expect_same_run(flooded, flood(g, source));
      expect_same_run(si_cds_broadcast_lossy(g, bb.cds, source, none, rng),
                      si_cds_broadcast(g, bb.cds, source));
      expect_same_run(mpr_broadcast_lossy(g, mpr, source, none, rng),
                      mpr_broadcast(g, mpr, source));
    }
  }
}

TEST(LossyTest, HighLossDegradesDelivery) {
  Rng topo_rng(13);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(6.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  Rng rng(14);
  stats::RunningStats delivery;
  for (int i = 0; i < 30; ++i)
    delivery.add(
        flood_lossy(net->graph, 0, LossModel{0.6}, rng).delivery_ratio());
  EXPECT_LT(delivery.mean(), 0.999);
}

TEST(LossyTest, FloodingIsMoreRobustThanBackbone) {
  // The redundancy/robustness trade-off: under loss, flooding's extra
  // transmissions buy delivery that the pruned backbone gives up.
  Rng topo_rng(15);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 80;
  cfg.range = geom::range_for_average_degree(10.0, 80, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  const auto bb = core::build_static_backbone(
      net->graph, core::CoverageMode::kTwoPointFiveHop);
  Rng rng(16);
  const LossModel model{0.3};
  stats::RunningStats flood_dr, cds_dr;
  for (int i = 0; i < 40; ++i) {
    flood_dr.add(flood_lossy(net->graph, 0, model, rng).delivery_ratio());
    cds_dr.add(si_cds_broadcast_lossy(net->graph, bb.cds, 0, model, rng)
                   .delivery_ratio());
  }
  EXPECT_GT(flood_dr.mean(), cds_dr.mean());
}

TEST(LossyTest, MprLossyRunsAndDegrades) {
  Rng topo_rng(17);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 60;
  cfg.range = geom::range_for_average_degree(10.0, 60, 100, 100);
  const auto net = geom::generate_connected_unit_disk(cfg, topo_rng);
  ASSERT_TRUE(net.has_value());
  const auto mpr = compute_mpr_sets(net->graph);
  Rng rng(18);
  const auto clean = mpr_broadcast_lossy(net->graph, mpr, 0,
                                         LossModel{0.0}, rng);
  EXPECT_TRUE(clean.delivered_all);
  stats::RunningStats dr;
  for (int i = 0; i < 20; ++i)
    dr.add(mpr_broadcast_lossy(net->graph, mpr, 0, LossModel{0.5}, rng)
               .delivery_ratio());
  EXPECT_LT(dr.mean(), 1.0);
}

TEST(LossyTest, RejectsBadLoss) {
  const auto g = graph::make_path(3);
  Rng rng(1);
  EXPECT_THROW(flood_lossy(g, 0, LossModel{1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(flood_lossy(g, 0, LossModel{-0.1}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace manet::broadcast
