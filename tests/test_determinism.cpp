// Reproducibility guarantees: identical seeds produce bit-identical
// results across the whole pipeline — the property the README promises
// and every EXPERIMENTS.md number relies on.
#include <gtest/gtest.h>

#include "core/dynamic_broadcast.hpp"
#include "core/static_backbone.hpp"
#include "exp/figures.hpp"
#include "proto/construction.hpp"

namespace manet::exp {
namespace {

stats::ReplicationPolicy tiny_policy() {
  stats::ReplicationPolicy p;
  p.min_replications = 5;
  p.max_replications = 10;
  return p;
}

PaperScenario tiny_scenario() {
  PaperScenario s;
  s.sizes = {20, 40};
  s.degrees = {6.0};
  return s;
}

TEST(DeterminismTest, Fig6RowsIdenticalAcrossRuns) {
  const auto a = run_fig6(tiny_scenario(), tiny_policy(), 777);
  const auto b = run_fig6(tiny_scenario(), tiny_policy(), 777);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replications, b[i].replications);
    EXPECT_EQ(a[i].static_25.mean, b[i].static_25.mean);
    EXPECT_EQ(a[i].static_3.mean, b[i].static_3.mean);
    EXPECT_EQ(a[i].mo_cds.mean, b[i].mo_cds.mean);
  }
}

TEST(DeterminismTest, Fig7And8RowsIdenticalAcrossRuns) {
  const auto a7 = run_fig7(tiny_scenario(), tiny_policy(), 778);
  const auto b7 = run_fig7(tiny_scenario(), tiny_policy(), 778);
  ASSERT_EQ(a7.size(), b7.size());
  for (std::size_t i = 0; i < a7.size(); ++i)
    EXPECT_EQ(a7[i].dynamic_25.mean, b7[i].dynamic_25.mean);

  const auto a8 = run_fig8(tiny_scenario(), tiny_policy(), 779);
  const auto b8 = run_fig8(tiny_scenario(), tiny_policy(), 779);
  ASSERT_EQ(a8.size(), b8.size());
  for (std::size_t i = 0; i < a8.size(); ++i) {
    EXPECT_EQ(a8[i].static_25.mean, b8[i].static_25.mean);
    EXPECT_EQ(a8[i].dynamic_3.mean, b8[i].dynamic_3.mean);
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  const auto a = run_fig6(tiny_scenario(), tiny_policy(), 1);
  const auto b = run_fig6(tiny_scenario(), tiny_policy(), 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].static_25.mean != b[i].static_25.mean) any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(DeterminismTest, WholePipelineIsPure) {
  // Building the backbone twice on the same graph yields identical
  // structures (no hidden global state anywhere in the pipeline).
  const PaperScenario s = tiny_scenario();
  const auto net = make_network(s, {40, 6.0}, 99, 0);
  const auto b1 = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  const auto b2 = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(b1.cds, b2.cds);
  EXPECT_EQ(b1.gateways, b2.gateways);

  const auto bb = core::build_dynamic_backbone(
      net.graph, b1.clustering, core::CoverageMode::kTwoPointFiveHop);
  const auto r1 = core::dynamic_broadcast(net.graph, bb, 5);
  const auto r2 = core::dynamic_broadcast(net.graph, bb, 5);
  EXPECT_EQ(r1.forward_nodes, r2.forward_nodes);

  const auto d1 = proto::run_distributed_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  const auto d2 = proto::run_distributed_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  EXPECT_EQ(d1.backbone, d2.backbone);
  EXPECT_EQ(d1.counts.total(), d2.counts.total());
  EXPECT_EQ(d1.rounds, d2.rounds);
}

}  // namespace
}  // namespace manet::exp
