// The §3 construction as the cold-start path of proto::MaintenanceNode.
//
// Golden pins of the construction and its message-level SD-CDS
// broadcast: the shape checks elsewhere (O(n) totals per node, a
// forward-set tolerance against the centralized engine) cannot see a
// per-type message count move; these pin every count, the causal
// journal and the forward sets exactly. Then the cross-check that a
// cold start lands on the engine's seeded bootstrap.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "core/state_hash.hpp"
#include "exp/ablations.hpp"
#include "geom/unit_disk.hpp"
#include "obs/session.hpp"
#include "paper_fixtures.hpp"
#include "proto/construction.hpp"
#include "proto/engine.hpp"

namespace manet::proto {
namespace {

using core::CoverageMode;
using net::Simulator;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t fnv_bytes(const std::string& bytes) {
  std::uint64_t h = kFnvBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- (a) run_msg_complexity, every column --------------------------------

/// Column sums over the replications (the row holds their means).
struct MsgComplexityTotals {
  std::size_t nodes;
  double degree;
  long long hello, roles, hop1, hop2, gateway, total, rounds, data,
      deliveries, inbox_resets;
};

TEST(ConstructionGolden, MsgComplexityRowsExact) {
  constexpr std::size_t kReps = 3;
  const MsgComplexityTotals expected[] = {
      {20, 6, 60, 60, 43, 43, 46, 252, 40, 32, 1173, 533},
      {60, 6, 180, 180, 136, 136, 132, 764, 49, 102, 4062, 1828},
      {100, 6, 300, 300, 220, 220, 245, 1285, 51, 192, 6949, 3060},
      {20, 18, 60, 60, 52, 52, 17, 241, 60, 12, 2630, 898},
      {60, 18, 180, 180, 158, 158, 72, 748, 77, 56, 10158, 3184},
      {100, 18, 300, 300, 265, 265, 119, 1249, 81, 86, 18004, 5561},
  };
  const auto rows =
      exp::run_msg_complexity({20, 60, 100}, {6.0, 18.0}, kReps, 63);
  ASSERT_EQ(rows.size(), std::size(expected));
  const auto sum = [](double mean) {
    return std::llround(mean * static_cast<double>(kReps));
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& e = expected[i];
    SCOPED_TRACE(testing::param_tag(e.nodes, e.degree, 63));
    EXPECT_EQ(r.nodes, e.nodes);
    EXPECT_EQ(r.degree, e.degree);
    EXPECT_EQ(sum(r.hello), e.hello);
    EXPECT_EQ(sum(r.roles), e.roles);
    EXPECT_EQ(sum(r.ch_hop1), e.hop1);
    EXPECT_EQ(sum(r.ch_hop2), e.hop2);
    EXPECT_EQ(sum(r.gateway), e.gateway);
    EXPECT_EQ(sum(r.construction_total), e.total);
    EXPECT_EQ(sum(r.rounds), e.rounds);
    EXPECT_EQ(sum(r.data), e.data);
    EXPECT_EQ(sum(r.deliveries), e.deliveries);
    EXPECT_EQ(sum(r.inbox_resets), e.inbox_resets);
  }
}

// ---- (b) the causal journal of construction + two DATA phases ------------

/// FNV-1a of the journal JSONL for the Figure-3 construction followed by
/// DATA broadcasts from sources 0 (a head) and 9 (a member).
std::uint64_t figure3_journal_digest(CoverageMode mode,
                                     std::size_t* events) {
  const auto g = testing::paper_figure3_network();
  obs::Session session;
  ConstructionNetwork network(g, mode);
  Simulator& sim = network.simulator();
  const auto node = [&network](NodeId v) -> MaintenanceNode& {
    return network.node(v);
  };
  sim.set_obs(&session);
  sim.run();
  for (const NodeId source : {NodeId{0}, NodeId{9}}) {
    sim.inject(source, node(source).make_broadcast_packet());
    sim.run();
    for (NodeId v = 0; v < g.order(); ++v) node(v).reset_broadcast_state();
  }
  *events = session.journal.total_recorded();
  std::ostringstream os;
  session.journal.write_jsonl(os);
  return fnv_bytes(os.str());
}

TEST(ConstructionGolden, Figure3JournalDigest) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  std::size_t events = 0;
  EXPECT_EQ(figure3_journal_digest(CoverageMode::kTwoPointFiveHop, &events),
            0x1acbeaf42ebd0585ULL);
  EXPECT_EQ(events, 60u);
  EXPECT_EQ(figure3_journal_digest(CoverageMode::kThreeHop, &events),
            0x492f509f36599cb3ULL);
  EXPECT_EQ(events, 62u);
}

// ---- (c) the distributed-data sweep's broadcasts -------------------------

struct BroadcastPin {
  NodeId source;
  std::size_t forward_count;
  std::uint64_t forward_digest;  ///< core::state_hash_nodes of the set
  std::size_t data_messages;
  std::uint32_t rounds;
};

struct SweepCase {
  std::size_t nodes;
  double degree;
  std::uint64_t seed;
  CoverageMode mode;
  BroadcastPin pins[3];
};

// The cases and source picks of DistributedDataSweep
// (test_distributed_data.cpp).
TEST(ConstructionGolden, DistributedDataSweepBroadcasts) {
  const SweepCase cases[] = {
      {20, 6, 121, CoverageMode::kTwoPointFiveHop,
       {{5, 11, 0x6573a9996ed31b80ULL, 11, 10},
        {17, 11, 0x423565a830914474ULL, 11, 10},
        {9, 10, 0x2dfe5b07ada23044ULL, 11, 8}}},
      {20, 6, 121, CoverageMode::kThreeHop,
       {{5, 11, 0x6573a9996ed31b80ULL, 11, 10},
        {17, 11, 0x423565a830914474ULL, 11, 10},
        {9, 10, 0x2dfe5b07ada23044ULL, 11, 8}}},
      {40, 6, 122, CoverageMode::kTwoPointFiveHop,
       {{11, 21, 0x85c176b15167d456ULL, 21, 11},
        {34, 22, 0x957ab20a3f010357ULL, 25, 14},
        {4, 21, 0x85c176b15167d456ULL, 24, 12}}},
      {60, 18, 123, CoverageMode::kThreeHop,
       {{6, 15, 0x5863a8c9413c65b2ULL, 16, 6},
        {28, 18, 0xa1a49f4e1cc70429ULL, 18, 7},
        {57, 17, 0x940c7d0b651a1e5dULL, 18, 5}}},
      {80, 6, 124, CoverageMode::kTwoPointFiveHop,
       {{68, 47, 0x9c1c83553fcbe903ULL, 52, 16},
        {68, 47, 0x9c1c83553fcbe903ULL, 52, 16},
        {27, 46, 0x620d5fa97e0825b5ULL, 51, 16}}},
      {100, 18, 125, CoverageMode::kTwoPointFiveHop,
       {{95, 29, 0x99fd12d0ec4bcea0ULL, 35, 9},
        {4, 28, 0x6853b9bda1e90a27ULL, 30, 9},
        {9, 28, 0xbe0e56e7d5c44d0aULL, 30, 9}}},
      {100, 6, 126, CoverageMode::kThreeHop,
       {{81, 56, 0x9e9d6b061741ef78ULL, 64, 16},
        {87, 62, 0xa915a759ae3b38a6ULL, 67, 19},
        {67, 59, 0x74751af3759a1034ULL, 65, 23}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::param_tag(c.nodes, c.degree, c.seed,
                                    core::to_string(c.mode)));
    Rng rng(c.seed);
    geom::UnitDiskConfig cfg;
    cfg.nodes = c.nodes;
    cfg.range =
        geom::range_for_average_degree(c.degree, c.nodes, cfg.width,
                                       cfg.height);
    const auto net = geom::generate_connected_unit_disk(cfg, rng);
    ASSERT_TRUE(net.has_value());
    Rng pick(c.seed ^ 0xd474);
    for (const auto& pin : c.pins) {
      const auto s = static_cast<NodeId>(pick.index(net->graph.order()));
      ASSERT_EQ(s, pin.source);
      const auto r = run_distributed_broadcast(net->graph, c.mode, s);
      EXPECT_EQ(r.forward_nodes.size(), pin.forward_count) << "source " << s;
      EXPECT_EQ(core::state_hash_nodes(kFnvBasis, r.forward_nodes),
                pin.forward_digest)
          << "source " << s;
      EXPECT_EQ(r.data_messages, pin.data_messages) << "source " << s;
      EXPECT_EQ(r.rounds, pin.rounds) << "source " << s;
    }
  }
}

// ---- The two entry paths of the one node state machine agree -----------

// A cold start over the engine's initial topology must leave every node
// in the state the engine's seeded bootstrap gives it: affiliation, role,
// both table rows, both coverage halves, the selected gateways and the
// backbone-membership flag.
TEST(ConstructionColdStart, LandsOnTheEngineBootstrap) {
  for (const CoverageMode mode :
       {CoverageMode::kTwoPointFiveHop, CoverageMode::kThreeHop}) {
    SCOPED_TRACE(core::to_string(mode));
    Rng rng(2026);
    geom::UnitDiskConfig cfg;
    cfg.nodes = 500;
    cfg.range = geom::range_for_average_degree(6.0, cfg.nodes, cfg.width,
                                               cfg.height);
    const auto net = geom::generate_unit_disk(cfg, rng);
    EngineOptions options;
    options.mode = mode;
    const MaintenanceEngine engine(net.positions, cfg.range, cfg.width,
                                   cfg.height, options);
    const graph::Graph g = engine.tracker().adjacency().freeze();
    ConstructionNetwork cold(g, mode);
    cold.simulator().run();

    std::size_t heads = 0, gateways = 0;
    for (NodeId v = 0; v < g.order(); ++v) {
      const MaintenanceNode& got = cold.node(v);
      const MaintenanceNode& want = engine.node(v);
      ASSERT_TRUE(got.decided()) << "node " << v;
      EXPECT_EQ(got.head(), want.head()) << "node " << v;
      EXPECT_EQ(got.role(), want.role()) << "node " << v;
      EXPECT_EQ(got.hop1_row(), want.hop1_row()) << "node " << v;
      EXPECT_TRUE(got.hop2_row() == want.hop2_row()) << "node " << v;
      EXPECT_EQ(got.coverage_two_hop(), want.coverage_two_hop())
          << "node " << v;
      EXPECT_EQ(got.coverage_three_hop(), want.coverage_three_hop())
          << "node " << v;
      EXPECT_EQ(got.selection_gateways(), want.selection_gateways())
          << "node " << v;
      EXPECT_EQ(got.gateway_flag(), want.gateway_flag()) << "node " << v;
      if (got.is_head()) ++heads;
      if (got.gateway_flag()) ++gateways;
    }
    // Non-trivial structure: many clusters, selected gateways present.
    EXPECT_GT(heads, 50u);
    EXPECT_GT(gateways, 50u);
  }
}

}  // namespace
}  // namespace manet::proto
