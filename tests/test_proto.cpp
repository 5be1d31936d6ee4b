// The message-driven maintenance engine (src/proto): bootstrap fidelity,
// crafted repair scenarios checked against the from-scratch oracle, and
// the equivalence soaks — every tick of a mobility run must land the
// protocol on the bitwise state the snapshot-driven incremental engine
// maintains (both mobility models, both coverage modes).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "exp/churn.hpp"
#include "exp/mobility_mix.hpp"
#include "exp/msg_churn.hpp"
#include "geom/point.hpp"
#include "geom/unit_disk.hpp"
#include "incr/pipeline.hpp"
#include "obs/journal.hpp"
#include "obs/session.hpp"
#include "proto/engine.hpp"

namespace manet {
namespace {

proto::EngineOptions oracle_options(core::CoverageMode mode) {
  proto::EngineOptions o;
  o.mode = mode;
  o.oracle_check = true;
  return o;
}

TEST(ProtoEngine, BootstrapMatchesIncrementalEngine) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {2, 0}, {10, 0},
                                  {11, 0}, {12, 0}, {11, 1}};
  for (const core::CoverageMode mode :
       {core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop}) {
    proto::MaintenanceEngine engine(pts, 1.5, 20, 5, oracle_options(mode));
    incr::PipelineOptions popts;
    popts.mode = mode;
    incr::IncrementalPipeline pipeline(pts, 1.5, 20, 5, popts);
    EXPECT_EQ(engine.state_hash(), pipeline.backbone().state_hash());
  }
}

// A tick with no staged moves: every node beacons, nobody repairs, the
// state is untouched and the wire carries exactly the n HELLOs.
TEST(ProtoEngine, QuietTickCostsOnlyHellos) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 10, 5, oracle_options(core::CoverageMode::kTwoPointFiveHop));
  const std::uint64_t before = engine.state_hash();
  const proto::MaintTickStats stats = engine.tick();
  EXPECT_EQ(engine.state_hash(), before);
  EXPECT_EQ(stats.messages.maint_hello, pts.size());
  EXPECT_EQ(stats.messages.maintenance_total(), pts.size());
  EXPECT_EQ(stats.link_changes, 0u);
  EXPECT_EQ(stats.head_changes, 0u);
}

// Crafted rule-1 merge: two separated clusters {0,1} and {2,3}; node 2
// (a head) moves next to head 0. The new head-head edge forces 2 to
// resign and join 0; node 3, stranded, must declare itself. The engine's
// oracle mode asserts the full repaired structure each tick.
TEST(ProtoEngine, HeadMergeResignsLargerHead) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 20, 5, oracle_options(core::CoverageMode::kTwoPointFiveHop));
  ASSERT_TRUE(engine.node(0).is_head());
  ASSERT_TRUE(engine.node(2).is_head());

  engine.stage_move(2, {1.4, 0});
  const proto::MaintTickStats stats = engine.tick();
  EXPECT_TRUE(engine.node(0).is_head());
  EXPECT_FALSE(engine.node(2).is_head());
  EXPECT_EQ(engine.node(2).head(), 0u);
  EXPECT_TRUE(engine.node(3).is_head());  // stranded, self-declared
  EXPECT_GE(stats.head_changes, 2u);

  // Move 2 back: the split must re-form both clusters, oracle-checked.
  engine.stage_move(2, {10, 0});
  engine.tick();
  EXPECT_TRUE(engine.node(2).is_head() || engine.node(2).head() == 3u ||
              engine.node(3).is_head());
  EXPECT_EQ(engine.node(0).head(), 0u);
  EXPECT_EQ(engine.node(1).head(), 0u);
}

// Sustained head churn must recycle RowStore slots through the free
// list: thousands of toggle ticks intern and release hop1/hop2/selection
// rows every tick, and neither the live-row counts nor the slab (slot
// high-water, chunk count) may grow past what the warmup already
// reached — a leaked reference or a dead free list would show up as
// monotone growth here long before it shows up as RSS at scale.
TEST(ProtoEngine, RowStoreRecyclesSlotsUnderSustainedHeadChurn) {
  Rng rng(4242);
  geom::UnitDiskConfig cfg;
  cfg.nodes = 200;
  cfg.range =
      geom::range_for_average_degree(8.0, cfg.nodes, cfg.width, cfg.height);
  const auto net = geom::generate_connected_unit_disk(cfg, rng, 100);
  ASSERT_TRUE(net.has_value());
  proto::MaintenanceEngine engine(net->positions, cfg.range, cfg.width,
                                  cfg.height, proto::EngineOptions{});

  // Every 20th node toggles between home and a displaced position each
  // tick — far enough (1.2 r) to retire links and flip head duty in its
  // neighborhood, driving the full intern/release cycle.
  std::vector<NodeId> movers;
  for (NodeId v = 0; v < cfg.nodes; v += 20) movers.push_back(v);
  const auto displaced = [&](NodeId v) {
    geom::Point p = net->positions[v];
    p.x += p.x < cfg.width / 2 ? 1.2 * cfg.range : -1.2 * cfg.range;
    return p;
  };
  const auto toggle_tick = [&](bool away) {
    for (const NodeId v : movers)
      engine.stage_move(v, away ? displaced(v) : net->positions[v]);
    engine.tick();
  };

  // Warmup: let the slab reach its churn working set (ends with movers
  // home, so later phase-aligned readings compare like with like).
  for (int t = 0; t < 100; ++t) toggle_tick(t % 2 == 0);
  const proto::RowStore& store = engine.store();
  const std::size_t live1 = store.live_hop1(), live2 = store.live_hop2();
  const std::size_t slots1 = store.slots_hop1(), slots2 = store.slots_hop2();
  const std::size_t chunks1 = store.chunks_hop1();
  const std::size_t chunks2 = store.chunks_hop2();
  const std::uint64_t hash = engine.state_hash();
  ASSERT_GT(slots1, live1);  // churn actually released rows

  for (int t = 0; t < 2000; ++t) toggle_tick(t % 2 == 0);

  // The protocol settles into the period-2 orbit of its drive, so the
  // phase-aligned live counts return exactly to the warmup baseline —
  // and the slab never grew: every row interned during the soak reused
  // a slot the free list recycled.
  EXPECT_EQ(engine.state_hash(), hash);
  EXPECT_EQ(store.live_hop1(), live1);
  EXPECT_EQ(store.live_hop2(), live2);
  EXPECT_EQ(store.slots_hop1(), slots1);
  EXPECT_EQ(store.slots_hop2(), slots2);
  EXPECT_EQ(store.chunks_hop1(), chunks1);
  EXPECT_EQ(store.chunks_hop2(), chunks2);
}

// A member drifting between clusters re-affiliates without disturbing
// either head (rule 2 keep/join path).
TEST(ProtoEngine, MemberHandoffBetweenClusters) {
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {4, 0}, {5, 0}};
  proto::MaintenanceEngine engine(
      pts, 1.5, 20, 5, oracle_options(core::CoverageMode::kThreeHop));
  ASSERT_EQ(engine.node(1).head(), 0u);

  engine.stage_move(1, {3.2, 0});  // out of 0's range, into 2's
  engine.tick();
  EXPECT_EQ(engine.node(1).head(), 2u);
  EXPECT_TRUE(engine.node(0).is_head());  // lone head keeps its cluster
  EXPECT_TRUE(engine.node(2).is_head());
}

exp::MsgChurnConfig make_soak(exp::ChurnConfig::Model model,
                              core::CoverageMode mode, std::uint64_t seed) {
  exp::MsgChurnConfig config;
  config.base.nodes = 60;
  config.base.degree = 6.0;
  config.base.ticks = 200;
  config.base.move_fraction = 0.05;
  config.base.model = model;
  config.base.mode = mode;
  config.base.seed = seed;
  config.base.connect_attempts = 5;
  config.crosscheck = true;
  config.oracle_check = true;
  return config;
}

// The acceptance soaks: >= 200 ticks of churn, both the engine-internal
// from-scratch oracle diff and the per-tick hash crosscheck against the
// incremental pipeline enabled. Four combinations.
TEST(ProtoEquivalence, WaypointTwoPointFiveHop) {
  const exp::MsgChurnResult r = exp::run_msg_churn(make_soak(
      exp::ChurnConfig::Model::kWaypoint,
      core::CoverageMode::kTwoPointFiveHop, 11));
  EXPECT_EQ(r.ticks, 200u);
  EXPECT_DOUBLE_EQ(r.hello_rate, 1.0);
}

TEST(ProtoEquivalence, WaypointThreeHop) {
  const exp::MsgChurnResult r = exp::run_msg_churn(make_soak(
      exp::ChurnConfig::Model::kWaypoint, core::CoverageMode::kThreeHop, 12));
  EXPECT_EQ(r.ticks, 200u);
}

TEST(ProtoEquivalence, DirectionTwoPointFiveHop) {
  const exp::MsgChurnResult r = exp::run_msg_churn(make_soak(
      exp::ChurnConfig::Model::kRandomDirection,
      core::CoverageMode::kTwoPointFiveHop, 13));
  EXPECT_EQ(r.ticks, 200u);
}

TEST(ProtoEquivalence, DirectionThreeHop) {
  const exp::MsgChurnResult r = exp::run_msg_churn(make_soak(
      exp::ChurnConfig::Model::kRandomDirection,
      core::CoverageMode::kThreeHop, 14));
  EXPECT_EQ(r.ticks, 200u);
}

// A correlated shock — 40% of all nodes move in one tick — must still
// reconverge to the oracle state within the tick.
TEST(ProtoEquivalence, MoveBurstReconverges) {
  exp::MsgChurnConfig config = make_soak(
      exp::ChurnConfig::Model::kWaypoint,
      core::CoverageMode::kTwoPointFiveHop, 21);
  config.base.ticks = 60;
  config.burst_fraction = 0.4;
  const exp::MsgChurnResult r = exp::run_msg_churn(config);
  EXPECT_GT(r.burst_rounds, 0u);
  EXPECT_LE(r.burst_rounds, r.max_rounds);
}

// The two harnesses replay the same trajectory (shared MobilityMix rng
// streams), so the protocol run's final digest must equal the
// incremental run's — without any lockstep help.
TEST(ProtoEquivalence, MatchesRunChurnFinalHash) {
  exp::ChurnConfig base;
  base.nodes = 80;
  base.degree = 6.0;
  base.ticks = 120;
  base.move_fraction = 0.04;
  base.seed = 31;
  base.connect_attempts = 5;
  base.rebuild_baseline = false;

  exp::MsgChurnConfig mcfg;
  mcfg.base = base;
  mcfg.crosscheck = false;
  mcfg.oracle_check = false;
  const exp::MsgChurnResult protocol = exp::run_msg_churn(mcfg);
  const exp::ChurnResult incremental = exp::run_churn(base);
  EXPECT_EQ(protocol.state_hash, incremental.state_hash);
}

// ---- Causal tracing and convergence observability ----

// The crafted head-merge repair with the flight recorder attached: the
// repair wave must land in the event journal as a single connected
// causal chain, rooted at a beacon and spanning at least three node
// tracks — the shape the Perfetto flow arrows render.
TEST(ProtoConvergence, WaveChainSpansThreeNodeTracks) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  std::vector<geom::Point> pts = {{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  proto::EngineOptions opts =
      oracle_options(core::CoverageMode::kTwoPointFiveHop);
  obs::Session session;
  opts.obs = &session;
  proto::MaintenanceEngine engine(pts, 1.5, 20, 5, opts);
  engine.stage_move(2, {1.4, 0});
  engine.tick();

  // The deepest wave of the repair tick.
  std::optional<obs::JournalEvent> deepest;
  session.journal.for_each([&](const obs::JournalEvent& e) {
    if (!deepest || e.depth > deepest->depth) deepest = e;
  });
  ASSERT_TRUE(deepest.has_value());
  EXPECT_GE(deepest->depth, 3u);

  const std::vector<obs::JournalEvent> chain =
      session.journal.causal_chain(deepest->trace_id);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_EQ(chain.front().parent_id, 0u);  // rooted, not truncated
  EXPECT_EQ(std::string(chain.front().type), "MAINT_HELLO");
  std::set<std::uint32_t> tracks;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    tracks.insert(chain[i].node);
    if (i > 0) {
      EXPECT_EQ(chain[i].parent_id, chain[i - 1].trace_id);
    }
  }
  EXPECT_GE(tracks.size(), 3u);

  // The rule-1 sub-chain: node 2's final resigned R1_STATUS must be
  // caused by head 0's surviving announcement, itself caused by a
  // beacon that revealed the head-head edge.
  std::optional<obs::JournalEvent> resigned;
  session.journal.for_each([&](const obs::JournalEvent& e) {
    if (e.node == 2 && std::string(e.type) == "R1_STATUS" && e.a == 1 &&
        e.b == 0)
      resigned = e;
  });
  ASSERT_TRUE(resigned.has_value());
  const std::vector<obs::JournalEvent> r1_chain =
      session.journal.causal_chain(resigned->trace_id);
  ASSERT_EQ(r1_chain.size(), 3u);
  EXPECT_EQ(std::string(r1_chain[0].type), "MAINT_HELLO");
  EXPECT_EQ(std::string(r1_chain[1].type), "R1_STATUS");
  EXPECT_EQ(r1_chain[1].node, 0u);  // the surviving smaller head
  EXPECT_EQ(r1_chain[1].b, 1u);     // survived
  EXPECT_EQ(r1_chain[0].parent_id, 0u);

  // The convergence families landed in the deterministic snapshot: the
  // resignation and the re-affiliation each pushed a stale-age sample,
  // and the wave observer saw caused messages.
  const std::string json =
      session.registry.snapshot().deterministic().to_json();
  EXPECT_NE(json.find("proto.conv.stale_age"), std::string::npos);
  EXPECT_NE(json.find("proto.conv.wave_depth"), std::string::npos);
  EXPECT_NE(json.find("proto.conv.quiescence_ticks"), std::string::npos);
  EXPECT_NE(json.find("proto.conv.expired_links"), std::string::npos);
}

// proto.conv.* metrics are integer-deterministic: a crosschecked churn
// run must produce a byte-identical deterministic snapshot whatever the
// witness pipeline's thread count.
TEST(ProtoConvergence, ConvMetricsBitwiseEqualAcrossThreads) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  std::string expected;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    exp::MsgChurnConfig config =
        make_soak(exp::ChurnConfig::Model::kWaypoint,
                  core::CoverageMode::kTwoPointFiveHop, 11);
    config.base.ticks = 60;
    config.base.threads = threads;
    config.oracle_check = false;  // crosscheck is the threaded harness
    obs::Session session;
    config.base.obs = &session;
    exp::run_msg_churn(config);
    const std::string json =
        session.registry.snapshot().deterministic().to_json();
    EXPECT_NE(json.find("proto.conv.stale_age"), std::string::npos);
    EXPECT_NE(json.find("proto.conv.quiescence_ticks"), std::string::npos);
    if (expected.empty())
      expected = json;
    else
      EXPECT_EQ(json, expected) << "snapshot diverged at threads=" << threads;
  }
}

// ---- Region-sharded execution ----

exp::ChurnConfig sharded_base(exp::ChurnConfig::Model model,
                              std::uint64_t seed) {
  exp::ChurnConfig base;
  base.nodes = 80;
  base.degree = 6.0;
  base.ticks = 120;
  base.move_fraction = 0.04;
  base.model = model;
  base.mode = core::CoverageMode::kTwoPointFiveHop;
  base.seed = seed;
  base.connect_attempts = 5;
  return base;
}

/// Every deterministic MaintTickStats field — everything but the three
/// wall-clock phase timings. The sharded merge computes the delivery
/// stats analytically for the quiescent bulk, so they are pinned here
/// alongside the counters the nodes produce.
void expect_same_tick_stats(const proto::MaintTickStats& want,
                            const proto::MaintTickStats& got,
                            std::size_t threads, std::size_t tick) {
  static_assert(sizeof(net::MessageCounts) == 10 * sizeof(std::size_t),
                "MessageCounts changed: compare the new field here too");
  static_assert(sizeof(net::DeliveryStats) == 3 * sizeof(std::size_t),
                "DeliveryStats changed: compare the new field here too");
  static_assert(sizeof(proto::MaintTickStats) ==
                    7 * sizeof(std::size_t) +
                        sizeof(std::vector<std::uint32_t>) +
                        sizeof(net::MessageCounts) +
                        sizeof(net::DeliveryStats) + 3 * sizeof(double),
                "MaintTickStats changed: compare the new field here too");
  SCOPED_TRACE(::testing::Message()
               << "threads=" << threads << " at tick " << tick);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.link_changes, want.link_changes);
  EXPECT_EQ(got.head_changes, want.head_changes);
  EXPECT_EQ(got.role_changes, want.role_changes);
  EXPECT_EQ(got.rows_changed, want.rows_changed);
  EXPECT_EQ(got.heads_refreshed, want.heads_refreshed);
  EXPECT_EQ(got.expired_links, want.expired_links);
  // Sharded runs list stale ages region-major (each region in its
  // single-lane dispatch order, since chunk ledgers merge in chunk
  // order), the sequential loop in global round order. The two orders
  // differ on multi-region ticks, so against the sequential loop the
  // comparison stays a multiset; across sharded thread counts the order
  // itself is identical, which the lockstep test checks exactly.
  std::vector<std::uint32_t> got_ages = got.stale_ages;
  std::vector<std::uint32_t> want_ages = want.stale_ages;
  std::sort(got_ages.begin(), got_ages.end());
  std::sort(want_ages.begin(), want_ages.end());
  EXPECT_EQ(got_ages, want_ages);
  const net::MessageCounts& gm = got.messages;
  const net::MessageCounts& wm = want.messages;
  EXPECT_EQ(gm.hello, wm.hello);
  EXPECT_EQ(gm.cluster_head, wm.cluster_head);
  EXPECT_EQ(gm.non_cluster_head, wm.non_cluster_head);
  EXPECT_EQ(gm.ch_hop1, wm.ch_hop1);
  EXPECT_EQ(gm.ch_hop2, wm.ch_hop2);
  EXPECT_EQ(gm.gateway, wm.gateway);
  EXPECT_EQ(gm.data, wm.data);
  EXPECT_EQ(gm.maint_hello, wm.maint_hello);
  EXPECT_EQ(gm.r1_status, wm.r1_status);
  EXPECT_EQ(gm.r2_status, wm.r2_status);
  EXPECT_EQ(got.delivery.deliveries, want.delivery.deliveries);
  EXPECT_EQ(got.delivery.inbox_resets, want.delivery.inbox_resets);
  EXPECT_EQ(got.delivery.dispatches, want.delivery.dispatches);
}

// Lockstep soak: the sharded engine (at several thread counts) must hold
// the sequential engine's exact state hash and tick statistics after
// every tick, under both mobility models. The sequential engine is
// itself crosschecked against the incremental pipeline elsewhere, so
// this transitively pins the sharded state to the whole equivalence
// tower.
TEST(ProtoSharded, LockstepMatchesSequentialEngine) {
  // At n = 80 every tick's movers paint one small region. The sparse
  // n = 2000 case (4 movers a tick) gives ticks with two to four active
  // regions, so the merge's region-ascending accounting is exercised
  // too. The dense n = 2000 case (100 movers a tick) paints one region
  // of most of the network, whose phases run as several node chunks.
  struct Case {
    std::size_t nodes;
    double move_fraction;
    std::size_t ticks;
  };
  for (const Case c : {Case{80, 0.04, 120}, Case{2000, 0.002, 120},
                       Case{2000, 0.05, 40}})
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    exp::ChurnConfig base = sharded_base(model, 41);
    base.nodes = c.nodes;
    base.move_fraction = c.move_fraction;
    base.ticks = c.ticks;
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.nodes << ", move fraction " << c.move_fraction
                 << ", model "
                 << (model == exp::ChurnConfig::Model::kWaypoint
                         ? "waypoint"
                         : "direction"));
    exp::MobilityMix seq_mix(base);
    proto::EngineOptions seq_opts;
    seq_opts.mode = base.mode;
    proto::MaintenanceEngine sequential(seq_mix.positions(), seq_mix.range(),
                                        base.width, base.height, seq_opts);

    std::vector<std::unique_ptr<exp::MobilityMix>> mixes;
    std::vector<std::unique_ptr<proto::MaintenanceEngine>> engines;
    const std::size_t thread_counts[] = {1, 2, 8};
    for (const std::size_t threads : thread_counts) {
      mixes.push_back(std::make_unique<exp::MobilityMix>(base));
      proto::EngineOptions opts;
      opts.mode = base.mode;
      opts.threads = threads;
      engines.push_back(std::make_unique<proto::MaintenanceEngine>(
          mixes.back()->positions(), mixes.back()->range(), base.width,
          base.height, opts));
    }

    for (std::size_t tick = 0; tick < base.ticks; ++tick) {
      const std::span<const NodeId> moved =
          seq_mix.advance(seq_mix.movers_per_tick());
      for (const NodeId v : moved)
        sequential.stage_move(v, seq_mix.positions()[v]);
      const proto::MaintTickStats want = sequential.tick();
      const std::uint64_t expect = sequential.state_hash();
      std::vector<std::uint32_t> first_ages;
      std::size_t first_chunked = 0;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::span<const NodeId> m =
            mixes[i]->advance(mixes[i]->movers_per_tick());
        for (const NodeId v : m)
          engines[i]->stage_move(v, mixes[i]->positions()[v]);
        const std::size_t chunked_before =
            engines[i]->simulator().chunked_phases();
        const proto::MaintTickStats got = engines[i]->tick();
        ASSERT_EQ(engines[i]->state_hash(), expect)
            << "threads=" << thread_counts[i] << " diverged at tick "
            << tick + 1;
        ASSERT_EQ(engines[i]->cross_scope_late(), 0u);
        expect_same_tick_stats(want, got, thread_counts[i], tick + 1);
        // Chunking is a function of the node lists alone: the same
        // phases split the same way at every lane count, and the stale
        // ages come out in the same order.
        const std::size_t chunked =
            engines[i]->simulator().chunked_phases() - chunked_before;
        if (i == 0) {
          first_ages = got.stale_ages;
          first_chunked = chunked;
        } else {
          EXPECT_EQ(got.stale_ages, first_ages)
              << "threads=" << thread_counts[i] << " at tick " << tick + 1;
          EXPECT_EQ(chunked, first_chunked)
              << "threads=" << thread_counts[i] << " at tick " << tick + 1;
        }
      }
    }
    // The dense case splits more than one phase per tick on average.
    if (c.move_fraction >= 0.05) {
      EXPECT_GT(engines[0]->simulator().chunked_phases(), base.ticks);
    }
  }
}

// The sharded engine under its own oracle: every tick's repaired state
// field-by-field equal to the from-scratch rebuild, plus the lockstep
// crosscheck against the incremental pipeline — run_msg_churn with
// engine_threads set. Both coverage modes, on the sparse configuration
// (n = 2000, 4 movers a tick), where ticks run several active regions
// at once.
TEST(ProtoSharded, OracleSoakBothModes) {
  for (const core::CoverageMode mode :
       {core::CoverageMode::kTwoPointFiveHop, core::CoverageMode::kThreeHop}) {
    exp::MsgChurnConfig config =
        make_soak(exp::ChurnConfig::Model::kWaypoint, mode, 11);
    config.base.nodes = 2000;
    config.base.move_fraction = 0.002;
    config.base.ticks = 100;
    config.engine_threads = 2;
    const exp::MsgChurnResult r = exp::run_msg_churn(config);
    EXPECT_EQ(r.ticks, 100u);
    EXPECT_DOUBLE_EQ(r.hello_rate, 1.0);
    EXPECT_GT(r.multi_region_ticks, 0u);
  }
}

// Deterministic metrics — the net.* delivery layer and the proto.conv.*
// convergence families — must be byte-identical whether the protocol
// runs sequentially or sharded at any thread count, under both mobility
// models. This is the strongest observable-equivalence claim: the bulk
// accounting of everything the scopes skip has to be exact, not close.
// The dense n = 2000 case runs one large region whose phases are split
// into node chunks, so the chunk-order merge of trace ids, journal
// entries and histogram counts is pinned too: the event journal of
// every sharded run must match byte for byte (the sequential loop
// journals the beacons of out-of-scope nodes as well, so it differs).
TEST(ProtoSharded, MetricsBitwiseEqualAcrossThreads) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  for (const std::size_t nodes : {std::size_t{80}, std::size_t{2000}})
  for (const auto model : {exp::ChurnConfig::Model::kWaypoint,
                           exp::ChurnConfig::Model::kRandomDirection}) {
    SCOPED_TRACE(::testing::Message() << "n=" << nodes);
    std::string expected;
    std::string expected_journal;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{8}}) {
      exp::MsgChurnConfig config;
      config.base = sharded_base(model, 17);
      config.base.ticks = 80;
      if (nodes != config.base.nodes) {
        config.base.nodes = nodes;
        config.base.move_fraction = 0.05;
        config.base.ticks = 20;
      }
      config.crosscheck = false;
      config.oracle_check = false;
      config.engine_threads = threads;
      obs::Session session;
      config.base.obs = &session;
      exp::run_msg_churn(config);
      const std::string json =
          session.registry.snapshot().deterministic().to_json();
      EXPECT_NE(json.find("net.msg.maint_hello"), std::string::npos);
      EXPECT_NE(json.find("proto.conv.wave_depth"), std::string::npos);
      if (expected.empty())
        expected = json;
      else
        EXPECT_EQ(json, expected)
            << "deterministic snapshot diverged at engine_threads=" << threads;
      if (threads == 0) continue;
      std::ostringstream journal;
      session.journal.write_jsonl(journal);
      if (expected_journal.empty())
        expected_journal = journal.str();
      else
        EXPECT_TRUE(journal.str() == expected_journal)
            << "event journal diverged at engine_threads=" << threads;
    }
  }
}

// Partition separation, message level: within a tick, no message may
// cross a repair-region boundary after round 1 (round-1 boundary beacons
// are the expected, bulk-accounted exception). The engine counts every
// scope-filtered late delivery; a soak must end at exactly zero — the
// painted growth of 7 cells strictly contains the deepest repair wave
// the protocol can launch. The sparse configuration (n = 2000, 4 movers
// a tick) gives ticks with several active regions, i.e. real region
// boundaries for a wave to escape across.
TEST(ProtoSharded, NoCrossRegionMessageWithinTick) {
  exp::ChurnConfig base = sharded_base(exp::ChurnConfig::Model::kWaypoint, 23);
  base.nodes = 2000;
  base.ticks = 150;
  base.move_fraction = 0.002;
  exp::MobilityMix mix(base);
  proto::EngineOptions opts;
  opts.mode = core::CoverageMode::kTwoPointFiveHop;
  opts.threads = 2;
  proto::MaintenanceEngine engine(mix.positions(), mix.range(), base.width,
                                  base.height, opts);
  std::size_t multi_region_ticks = 0;
  for (std::size_t tick = 0; tick < base.ticks; ++tick) {
    const std::span<const NodeId> moved = mix.advance(mix.movers_per_tick());
    for (const NodeId v : moved) engine.stage_move(v, mix.positions()[v]);
    engine.tick();
    ASSERT_EQ(engine.cross_scope_late(), 0u)
        << "a repair wave escaped its painted region at tick " << tick + 1;
    if (engine.active_regions() > 1) ++multi_region_ticks;
  }
  EXPECT_GT(multi_region_ticks, 0u);
}

// Divergence forensics end to end: re-introduce the historical
// stale-gateway bug (a cached selected flag surviving the ex-head's
// non-head beacon at link formation), soak until the oracle trips, and
// require the exception to carry the causal slice — the ex-head's
// recent beacon chain — from the event journal.
TEST(ProtoForensics, StaleGatewayFaultDumpsCausalSlice) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  exp::MsgChurnConfig config =
      make_soak(exp::ChurnConfig::Model::kWaypoint,
                core::CoverageMode::kTwoPointFiveHop, 5);
  config.base.ticks = 100;  // seed 5 diverges at tick 96
  config.crosscheck = false;
  config.oracle_check = true;
  config.inject_stale_gateway_fault = true;
  obs::Session session;
  config.base.obs = &session;
  try {
    exp::run_msg_churn(config);
    FAIL() << "injected stale-gateway fault escaped the oracle";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale gateway flag from resigned ex-head"),
              std::string::npos);
    EXPECT_NE(what.find("forensics: causal slice"), std::string::npos);
    // The slice names the ex-head (origin 55 for this seed) and shows
    // its beacon chain — MAINT_HELLO roots in the recent-sends dump.
    EXPECT_NE(what.find("and origin 55"), std::string::npos);
    EXPECT_NE(what.find("node 55 MAINT_HELLO"), std::string::npos);
    EXPECT_NE(what.find("causal chain of origin 55"), std::string::npos);
  }
}

}  // namespace
}  // namespace manet
