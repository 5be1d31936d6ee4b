// Gate tests of the maintenance bench harness (bench/maint_harness): each
// gate passes on hand-made rows that hold it and trips on rows that break
// it, so a gate that stops tripping fails here rather than going silent
// in the benches.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "maint_harness.hpp"

namespace manet::bench {
namespace {

Row make(std::size_t n, double wall_ms, std::size_t rss_bytes,
         std::uint64_t hash = 1) {
  Row r;
  r.n = n;
  r.wall_ms_per_tick = wall_ms;
  r.peak_rss_bytes = rss_bytes;
  r.state_hash = hash;
  r.connected = true;
  return r;
}

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

/// A fake run replaying scripted (wall, hash) pairs, one per call.
Harness::Run scripted(std::vector<std::pair<double, std::uint64_t>> script) {
  auto next = std::make_shared<std::size_t>(0);
  return [script, next](obs::Session&) {
    const auto [wall, hash] = script.at((*next)++);
    return make(1000, wall, 1000, hash);
  };
}

bool gate_of(const Harness& h, const std::string& name) {
  const auto it = h.gates().find(name);
  if (it != h.gates().end()) return it->second;
  ADD_FAILURE() << "no gate " << name;
  return false;
}

TEST(MaintHarnessTest, MedianOfKPicksTheMedianRowByWall) {
  EXPECT_EQ(median_by_wall({make(1, 3.0, 0), make(1, 1.0, 0),
                            make(1, 2.0, 0)}),
            2u);
  EXPECT_EQ(median_by_wall({make(1, 5.0, 0)}), 0u);
  EXPECT_THROW(median_by_wall({}), std::invalid_argument);

  Harness h("test", make_flags({"--repeat=3"}), {});
  const Row median =
      h.repeated("scale", scripted({{3.0, 7}, {1.0, 7}, {2.0, 7}}));
  EXPECT_DOUBLE_EQ(median.wall_ms_per_tick, 2.0);
  ASSERT_EQ(h.rows().size(), 3u);  // every repeat is recorded
  for (const Row& r : h.rows()) {
    EXPECT_EQ(r.repeat, 3u);
    EXPECT_EQ(r.median, r.wall_ms_per_tick == 2.0);
  }
}

TEST(MaintHarnessTest, RepeatsMustLandOnOneHash) {
  Harness stable("test", make_flags({"--repeat=3"}), {});
  stable.repeated("scale", scripted({{1.0, 7}, {2.0, 7}, {3.0, 7}}));
  EXPECT_TRUE(gate_of(stable, "one_hash"));

  Harness drifting("test", make_flags({"--repeat=3"}), {});
  drifting.repeated("scale", scripted({{1.0, 7}, {2.0, 7}, {3.0, 9}}));
  EXPECT_FALSE(gate_of(drifting, "one_hash"));
}

TEST(MaintHarnessTest, VerifyNeedsOneHashAndOneMetricsSnapshot) {
  Row a = make(10, 1.0, 0, 5);
  Row b = make(10, 2.0, 0, 5);
  a.deterministic = b.deterministic = R"({"counters":{"x":1}})";
  EXPECT_TRUE(one_hash({a, b}, true));

  Row other_hash = b;
  other_hash.state_hash = 6;
  EXPECT_FALSE(one_hash({a, other_hash}, false));

  Row other_metrics = b;
  other_metrics.deterministic = R"({"counters":{"x":2}})";
  EXPECT_FALSE(one_hash({a, other_metrics}, true));
  EXPECT_TRUE(one_hash({a, other_metrics}, false));

  Harness h("test", make_flags({}), {});
  h.verify("verify", {scripted({{1.0, 5}}), scripted({{1.0, 5}})}, true);
  EXPECT_TRUE(gate_of(h, "one_hash"));
  h.verify("verify", {scripted({{1.0, 5}}), scripted({{1.0, 6}})}, true);
  EXPECT_FALSE(gate_of(h, "one_hash"));  // gates AND across stages
}

TEST(MaintHarnessTest, RssBudgetPerNode) {
  EXPECT_TRUE(rss_within(make(1000000, 1.0, 1000000000), 1024.0));
  EXPECT_FALSE(rss_within(make(1000000, 1.0, 1100000000), 1024.0));
}

TEST(MaintHarnessTest, RssMustNotGrowMoreThanTenPercent) {
  EXPECT_TRUE(rss_no_growth({make(10000, 1.0, 30000000),
                             make(100000, 1.0, 170000000),
                             make(1000000, 1.0, 990000000)}));
  EXPECT_TRUE(rss_no_growth(
      {make(10000, 1.0, 10000000), make(100000, 1.0, 110000000)}));
  EXPECT_FALSE(rss_no_growth(
      {make(10000, 1.0, 10000000), make(100000, 1.0, 120000000)}));
}

TEST(MaintHarnessTest, WallMustGrowSlowerThanN) {
  EXPECT_TRUE(sublinear_wall({make(10000, 10.0, 0), make(100000, 50.0, 0),
                              make(1000000, 90.0, 0)}));
  EXPECT_TRUE(sublinear_wall({make(10000, 10.0, 0)}));
  EXPECT_FALSE(
      sublinear_wall({make(10000, 10.0, 0), make(100000, 100.0, 0)}));
}

TEST(MaintHarnessTest, TrafficMustStayFlat) {
  EXPECT_TRUE(flat({1.39, 1.05, 1.006, 1.0006}, 1.5));
  EXPECT_FALSE(flat({1.0, 1.6}, 1.5));
  EXPECT_FALSE(flat({0.0, 1.0}, 1.5));
  EXPECT_FALSE(flat({}, 1.5));
}

TEST(MaintHarnessTest, RssGatesArmOnlyOutsideSanitizerBuilds) {
  Harness h("test", make_flags({}), {});
  h.rss_gate("rss_budget", false);
  EXPECT_EQ(h.gates().size(), kSanitized ? 0u : 1u);
}

TEST(MaintHarnessTest, DocumentCarriesGatesAndExitCode) {
  const std::string path = ::testing::TempDir() + "maint_harness_doc.json";
  Harness h("test", make_flags({"--seed=7"}), {});
  h.record("matrix", scripted({{1.0, 0xabc}}));
  h.gate("traffic_flat", true);
  EXPECT_EQ(h.finish(path), 0);
  h.gate("traffic_flat", false);
  EXPECT_EQ(h.finish(path), 1);
  std::stringstream doc;
  doc << std::ifstream(path).rdbuf();
  for (const char* field :
       {"\"seed\": 7", "\"host_hw_concurrency\": ", "\"build_sanitizer\": ",
        "\"rss_gated\": ", "\"traffic_flat\": false",
        "\"state_hash\": \"0000000000000abc\""})
    EXPECT_NE(doc.str().find(field), std::string::npos) << field;
}

TEST(MaintHarnessTest, RejectsNegativeAndMalformedCounts) {
  EXPECT_EQ(make_flags({"--threads=4"}).get_count("threads", 1), 4u);
  EXPECT_EQ(make_flags({}).get_count("threads", 1), 1u);
  for (const char* bad : {"--threads=-3", "--threads=abc"}) {
    try {
      make_flags({bad}).get_count("threads", 1);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const FlagError& e) {
      EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    }
  }
  // The repeat count goes through the same check.
  EXPECT_THROW(Harness("test", make_flags({"--repeat=-1"}), {}), FlagError);
}

}  // namespace
}  // namespace manet::bench
