// Self-tests of the benchmark's own machinery: the percentile rule, self
// time from nested spans, failure counting (a deliberately broken CDS
// probe must fail), and seed plumbing (same seed, same fingerprint).
// Run with `python3 perfbench/run.py --selftest`; exits 1 on any failure.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/lowest_id.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

using namespace perfbench;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(near(percentile(v, 0.5), 50.0), "p50 of 1..100 is 50 (nearest rank)");
  check(near(percentile(v, 0.9), 90.0), "p90 of 1..100 is 90");
  check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  check(tail_reportable(100, 0.9) && !tail_reportable(99, 0.9),
        "p90 needs at least 100 samples");
  check(min_samples_for(0.9) == 100 && min_samples_for(0.5) == 20,
        "minimum sample counts for p90 and p50");
  check(timed_ticks(60.0) == 200,
        "timed ticks per repetition = rate x seconds / repetitions");
  check(timed_ticks(1.0) == 100,
        "short runs still leave 10 timed ticks beyond p90");
}

void test_self_time() {
  // root [0, 1000us] with two overlapping children [100, 300] and
  // [200, 500]; the first child has a grandchild [120, 150] that must not
  // be subtracted from the root a second time.
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 1000000, -1, 1};
  spans[1] = {"a", 100000, 300000, 0, 1};
  spans[2] = {"b", 200000, 500000, 0, 1};
  spans[3] = {"a.inner", 120000, 150000, 1, 1};
  const std::vector<double> self = self_times_ms(spans);
  check(near(self[0], 0.6), "root self = 1.0 - union(children) = 0.6 ms");
  check(near(self[1], 0.17), "child self excludes its own child");
  check(near(self[2], 0.3) && near(self[3], 0.03), "leaf self = duration");

  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "outer", 7);
    Tracer::Scope inner(tracer, "inner", 7);
  }
  { Tracer::Scope next(tracer, "next", 8); }
  const std::vector<Span>& s = tracer.spans();
  check(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
            s[2].parent == -1 && s[1].tick == 7,
        "tracer scopes record parents and tick ids");
  check(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns,
        "inner span nests inside outer");
  Tracer off(false);
  { Tracer::Scope x(off, "x", 1); }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

void test_probe_reach() {
  // Path 0-1-2-3 plus an isolated node 4. From 0, the SI broadcast over
  // relays {1, 2} reaches the whole component; over no relays it stops
  // at node 1, and the probe must report that as incomplete.
  manet::graph::GraphBuilder b(5);
  b.edge(0, 1).edge(1, 2).edge(2, 3);
  const manet::graph::Graph g = b.build();
  const std::vector<std::uint32_t> comp = {0, 0, 0, 0, 1};
  const manet::cluster::Clustering c = manet::cluster::lowest_id_clustering(g);
  const auto mode = manet::core::CoverageMode::kTwoPointFiveHop;
  Tracer off(false);
  const ProbeResult good = run_probe(g, {1, 2}, c, mode, 0, comp, off, 0);
  check(good.ok() && good.si.component == 4 && good.si_forward == 3,
        "probe over a CDS reaches the source's component");
  const ProbeResult broken = run_probe(g, {}, c, mode, 0, comp, off, 0);
  check(!broken.ok() && broken.si.reached == 2 && broken.sd.complete(),
        "probe over a broken CDS reports the missed nodes");
  check(near(broken.si.ratio(), 0.5), "reach ratio counts the component only");

  OpCount ops;
  ops.record(true);
  ops.record(false);
  check(ops.attempted == 2 && ops.failed_total() == 1 && !ops.correct(),
        "a failed operation is counted");
  ops.end_check_ok = false;
  check(ops.failed_total() == 2 && near(ops.failed_frac(), 1.0),
        "a failed end check fails every operation");
}

RunConfig tiny(EngineKind engine, bool probes, std::uint64_t seed) {
  RunConfig cfg;
  cfg.spec.name = "tiny";
  cfg.spec.engine = engine;
  cfg.spec.nodes = 3000;
  cfg.spec.movers = 30;
  cfg.spec.probes = probes;
  cfg.spec.warmup_ticks = 2;
  cfg.seed = seed;
  cfg.seconds = 0.0;  // the 100-tick minimum
  return cfg;
}

void test_broken_cds_fails() {
  RunConfig cfg = tiny(EngineKind::kProto, true, 3);
  const RunReport good = run_workload(cfg);
  check(good.ops.correct() && good.ops.attempted == kRepetitions * 102 * 3,
        "probing run: every tick and broadcast succeeds");
  cfg.break_cds = true;
  const RunReport bad = run_workload(cfg);
  check(!bad.ops.correct() && bad.ops.failed > 0,
        "broadcast over a CDS without gateways is counted as failed");
  check(bad.ops.failed <= bad.ops.attempted / 2,
        "only the SI broadcasts of the broken probe fail");
}

std::string fingerprint(const RunReport& r) {
  std::string s = std::to_string(r.state_hash);
  for (const Metric& m : r.deterministic)
    s += " " + m.name + "=" + json_number(m.value);
  return s;
}

void test_seed_plumbing() {
  for (const EngineKind engine : {EngineKind::kProto, EngineKind::kIncr}) {
    const char* tag = engine == EngineKind::kProto ? "proto" : "incr";
    RunConfig cfg = tiny(engine, engine == EngineKind::kProto, 11);
    const RunReport a = run_workload(cfg);
    const RunReport b = run_workload(cfg);
    cfg.trace = true;
    const RunReport traced = run_workload(cfg);
    cfg.trace = false;
    cfg.seed = 12;
    const RunReport other = run_workload(cfg);
    check(a.ops.correct() && b.ops.correct() && traced.ops.correct() &&
              other.ops.correct(),
          std::string(tag) + ": tiny runs pass their end-of-run checks");
    check(a.state_hash != 0 && fingerprint(a) == fingerprint(b),
          std::string(tag) + ": same seed, same deterministic fingerprint");
    check(fingerprint(a) == fingerprint(traced),
          std::string(tag) + ": traced run lands on the untraced fingerprint");
    check(a.state_hash != other.state_hash,
          std::string(tag) + ": another seed gives another network");
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_probe_reach();
  test_broken_cds_fails();
  test_seed_plumbing();
  std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "passed", failures,
              failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
