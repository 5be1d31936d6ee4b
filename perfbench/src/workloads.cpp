#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "broadcast/si_cds.hpp"
#include "cluster/lcc.hpp"
#include "common/rng.hpp"
#include "common/rss.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/state_hash.hpp"
#include "core/static_backbone.hpp"
#include "exp/churn.hpp"
#include "exp/mobility_mix.hpp"
#include "geom/point.hpp"
#include "graph/algorithms.hpp"
#include "incr/backbone.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/pipeline.hpp"
#include "incr/worker_pool.hpp"
#include "net/message.hpp"
#include "obs/session.hpp"
#include "proto/engine.hpp"

namespace perfbench {

using manet::NodeId;
using manet::NodeSet;
namespace cluster = manet::cluster;
namespace core = manet::core;
namespace exp = manet::exp;
namespace geom = manet::geom;
namespace graph = manet::graph;
namespace incr = manet::incr;
namespace obs = manet::obs;
namespace proto = manet::proto;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // name, engine, nodes, movers, probes, warm-up ticks
      {"steady-1m", EngineKind::kProto, 1000000, 100, false, 20},
      {"churn-100k", EngineKind::kIncr, 100000, 1000, false, 10},
      {"cast-20k", EngineKind::kProto, 20000, 200, true, 10},
  };
  return specs;
}

std::size_t timed_ticks(double seconds) {
  const auto nominal = static_cast<std::size_t>(std::llround(
      seconds * kTicksPerSecond / static_cast<double>(kRepetitions)));
  return std::max(nominal, min_samples_for(0.9));
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : workloads())
    if (s.name == name) return &s;
  return nullptr;
}

namespace {

constexpr core::CoverageMode kMode = core::CoverageMode::kTwoPointFiveHop;

/// The configuration of the committed scale rows: degree 6, waypoint
/// mobility, 2.5-hop coverage, sparse grid, streaming build and
/// placement, cell-major labels.
exp::ChurnConfig churn_config(const WorkloadSpec& spec, std::uint64_t seed) {
  exp::ChurnConfig c;
  c.nodes = spec.nodes;
  c.degree = 6.0;
  c.move_fraction =
      static_cast<double>(spec.movers) / static_cast<double>(spec.nodes);
  c.model = exp::ChurnConfig::Model::kWaypoint;
  c.mode = kMode;
  c.seed = seed;
  c.connect_attempts = 1;
  c.grid = geom::GridIndex::kSparse;
  c.streaming_build = true;
  c.cell_order = true;
  c.streaming_placement = true;
  return c;
}

std::uint64_t hash_backbone(const incr::IncrementalBackbone& b) {
  return core::backbone_state_hash(b.clustering(), b.tables(), b.coverage(),
                                   b.selection(), b.gateways(), b.cds());
}

/// What one tick reported, in the union of both engines' terms.
struct TickFacts {
  std::size_t link_changes = 0;
  std::size_t head_changes = 0;
  // proto::MaintTickStats
  std::uint32_t rounds = 0;
  manet::net::MessageCounts msgs;
  std::size_t deliveries = 0;
  double deliver_cpu_ms = 0.0;
  double node_step_cpu_ms = 0.0;
  double mirror_ms = 0.0;
  // incr::TickStats and the composed tick's split
  std::size_t regions = 0;
  std::size_t rows_recomputed = 0;
  std::size_t heads_reselected = 0;
  double largest_region_share = 0.0;
  double repair_ms = 0.0;
  double repair_cpu_ms = 0.0;
};

/// The slice of an engine the benchmark drives. Three implementations:
/// the protocol engine, the incremental facade, and the incremental
/// engine composed from its parts (traced runs split commit from repair).
class Engine {
 public:
  virtual ~Engine() = default;
  virtual void stage(NodeId v, geom::Point p) = 0;
  virtual TickFacts tick(Tracer& tracer, std::uint64_t t) = 0;
  virtual std::uint64_t state_hash() const = 0;
  virtual NodeSet cds() const = 0;
  virtual const cluster::Clustering& clustering() const = 0;
  virtual graph::Graph freeze() const = 0;
  virtual std::size_t cross_scope_late() const { return 0; }
};

class ProtoEngine final : public Engine {
 public:
  ProtoEngine(const exp::MobilityMix& mix, const exp::ChurnConfig& c,
              std::size_t lanes, obs::Session* session)
      : engine_(mix.positions(), mix.range(), c.width, c.height,
                options(c, lanes, session)) {}

  void stage(NodeId v, geom::Point p) override { engine_.stage_move(v, p); }

  TickFacts tick(Tracer& tracer, std::uint64_t t) override {
    proto::MaintTickStats s;
    {
      Tracer::Scope span(tracer, "proto.tick", t);
      s = engine_.tick();
    }
    TickFacts f;
    f.link_changes = s.link_changes;
    f.head_changes = s.head_changes;
    f.rounds = s.rounds;
    f.msgs = s.messages;
    f.deliveries = s.delivery.deliveries;
    f.deliver_cpu_ms = s.deliver_ms;
    f.node_step_cpu_ms = s.node_step_ms;
    f.mirror_ms = s.mirror_ms;
    return f;
  }

  std::uint64_t state_hash() const override { return engine_.state_hash(); }
  NodeSet cds() const override { return engine_.cds(); }
  const cluster::Clustering& clustering() const override {
    return engine_.clustering();
  }
  graph::Graph freeze() const override {
    return engine_.tracker().adjacency().freeze();
  }
  std::size_t cross_scope_late() const override {
    return engine_.cross_scope_late();
  }

 private:
  static proto::EngineOptions options(const exp::ChurnConfig& c,
                                      std::size_t lanes,
                                      obs::Session* session) {
    proto::EngineOptions o;
    o.mode = c.mode;
    o.grid = c.grid;
    o.streaming_build = c.streaming_build;
    o.threads = lanes;
    o.obs = session;
    return o;
  }

  proto::MaintenanceEngine engine_;
};

class IncrFacade final : public Engine {
 public:
  IncrFacade(const exp::MobilityMix& mix, const exp::ChurnConfig& c,
             std::size_t lanes)
      : pipeline_(mix.positions(), mix.range(), c.width, c.height,
                  options(c, lanes)) {}

  void stage(NodeId v, geom::Point p) override { pipeline_.stage_move(v, p); }

  TickFacts tick(Tracer& tracer, std::uint64_t t) override {
    incr::TickStats s;
    {
      Tracer::Scope span(tracer, "incr.tick", t);
      s = pipeline_.tick();
    }
    TickFacts f;
    f.link_changes = s.link_changes;
    f.head_changes = s.head_changes;
    f.regions = s.regions;
    f.rows_recomputed = s.rows_recomputed;
    f.heads_reselected = s.heads_reselected;
    return f;
  }

  std::uint64_t state_hash() const override {
    return hash_backbone(pipeline_.backbone());
  }
  NodeSet cds() const override { return pipeline_.backbone().cds(); }
  const cluster::Clustering& clustering() const override {
    return pipeline_.clustering();
  }
  graph::Graph freeze() const override { return pipeline_.freeze_graph(); }

 private:
  static incr::PipelineOptions options(const exp::ChurnConfig& c,
                                       std::size_t lanes) {
    incr::PipelineOptions o;
    o.mode = c.mode;
    o.grid = c.grid;
    o.streaming_build = c.streaming_build;
    o.threads = lanes;
    return o;
  }

  incr::IncrementalPipeline pipeline_;
};

/// IncrementalPipeline's synchronous tick, composed from its public
/// parts on the benchmark's own WorkerPool so commit and repair can be
/// timed from outside. Lands on the facade's state bit for bit.
class IncrComposed final : public Engine {
 public:
  IncrComposed(const exp::MobilityMix& mix, const exp::ChurnConfig& c,
               std::size_t lanes, obs::Session* session)
      : tracker_(mix.positions(), mix.range(), c.width, c.height, c.grid,
                 c.streaming_build),
        backbone_(tracker_.adjacency(), c.mode),
        pool_(lanes) {
    backbone_.set_obs(session);
    pool_.set_obs(session);
  }

  void stage(NodeId v, geom::Point p) override { tracker_.stage_move(v, p); }

  TickFacts tick(Tracer& tracer, std::uint64_t t) override {
    Tracer::Scope tick_span(tracer, "incr.tick", t);
    TickFacts f;
    incr::EdgeDelta delta;
    {
      Tracer::Scope span(tracer, "incr.commit", t);
      incr::CommitOptions o;
      o.regions = &partition_;
      o.pool = &pool_;
      delta = tracker_.commit(o);
    }
    const auto t1 = Clock::now();
    const double cpu0 = process_cpu_ms();
    incr::TickStats s;
    {
      Tracer::Scope span(tracer, "incr.repair", t);
      if (partition_.count >= 2 && !delta.empty()) {
        s = backbone_.apply_parallel(tracker_.adjacency(), delta, partition_,
                                     pool_);
      } else {
        s = backbone_.apply(tracker_.adjacency(), delta);
        s.regions = partition_.count;
      }
    }
    f.repair_cpu_ms = process_cpu_ms() - cpu0;
    const auto t2 = Clock::now();
    f.repair_ms = ms_between(t1, t2);
    f.link_changes = s.link_changes;
    f.head_changes = s.head_changes;
    f.regions = s.regions;
    f.rows_recomputed = s.rows_recomputed;
    f.heads_reselected = s.heads_reselected;
    std::size_t largest = 0;
    for (const incr::EdgeDelta& d : partition_.deltas)
      largest = std::max(largest, d.link_changes());
    if (!delta.empty())
      f.largest_region_share = static_cast<double>(largest) /
                               static_cast<double>(delta.link_changes());
    return f;
  }

  std::uint64_t state_hash() const override { return hash_backbone(backbone_); }
  NodeSet cds() const override { return backbone_.cds(); }
  const cluster::Clustering& clustering() const override {
    return backbone_.clustering();
  }
  graph::Graph freeze() const override {
    return tracker_.adjacency().freeze();
  }

 private:
  incr::DeltaTracker tracker_;
  incr::IncrementalBackbone backbone_;
  incr::WorkerPool pool_;
  incr::RegionPartition partition_;
};

std::unique_ptr<Engine> make_engine(const WorkloadSpec& spec,
                                    const exp::MobilityMix& mix,
                                    const exp::ChurnConfig& c,
                                    std::size_t lanes,
                                    obs::Session* session) {
  if (spec.engine == EngineKind::kProto)
    return std::make_unique<ProtoEngine>(mix, c, lanes, session);
  if (session) return std::make_unique<IncrComposed>(mix, c, lanes, session);
  return std::make_unique<IncrFacade>(mix, c, lanes);
}

/// Moves the next tick's nodes and stages them on the engine.
void advance_and_stage(exp::MobilityMix& mix, Engine& engine,
                       std::size_t movers, Tracer& tracer, std::uint64_t t) {
  std::span<const NodeId> moved;
  {
    Tracer::Scope span(tracer, "exp.advance", t);
    moved = mix.advance(movers);
  }
  Tracer::Scope span(tracer, "engine.stage", t);
  const std::vector<geom::Point>& pos = mix.positions();
  for (const NodeId v : moved) engine.stage(v, pos[v]);
}

/// A seeded source inside the largest component (so every probe measures
/// a network-wide broadcast, not an isolated node's).
NodeId pick_source(const std::vector<std::uint32_t>& component_of,
                   std::uint32_t components, manet::Rng& rng) {
  std::vector<std::size_t> size(components, 0);
  for (const std::uint32_t c : component_of) ++size[c];
  const auto largest = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  for (;;) {
    const auto v = static_cast<NodeId>(rng.index(component_of.size()));
    if (component_of[v] == largest) return v;
  }
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One pass of the workload loop: move, stage, tick, and the probe on
/// probing workloads.
struct Step {
  bool ok = true;
  TickFacts facts;
  double move_ms = 0.0;     ///< MobilityMix::advance + staging
  double tick_ms = 0.0;     ///< the engine tick
  double tick_cpu_ms = 0.0; ///< process CPU time during the tick
  double probe_ms = 0.0;    ///< timed part of the probe (cast_ms)
  ProbeResult probe;
};

/// Drives one step; every tick and broadcast is an operation in `ops`.
Step run_step(const RunConfig& cfg, exp::MobilityMix& mix, Engine& engine,
              manet::Rng& probe_rng, Tracer& tracer, std::uint64_t t,
              OpCount& ops, std::vector<std::string>& errors) {
  Step s;
  Tracer::Scope step_span(tracer, "step", t);
  const auto a0 = Clock::now();
  advance_and_stage(mix, engine, cfg.spec.movers, tracer, t);
  const auto a1 = Clock::now();
  const double cpu0 = process_cpu_ms();
  try {
    s.facts = engine.tick(tracer, t);
  } catch (const std::exception& e) {
    s.ok = false;
    errors.push_back("tick " + std::to_string(t) + " threw: " + e.what());
  }
  s.tick_cpu_ms = process_cpu_ms() - cpu0;
  const auto a2 = Clock::now();
  s.move_ms = ms_between(a0, a1);
  s.tick_ms = ms_between(a1, a2);
  ops.record(s.ok);
  if (!s.ok || !cfg.spec.probes) return s;

  const auto p0 = Clock::now();
  graph::Graph g;
  {
    Tracer::Scope span(tracer, "graph.freeze", t);
    g = engine.freeze();
  }
  const auto p1 = Clock::now();
  std::pair<std::vector<std::uint32_t>, std::uint32_t> comps;
  {
    Tracer::Scope span(tracer, "verify.components", t);
    comps = graph::components(g);
  }
  const NodeId source = pick_source(comps.first, comps.second, probe_rng);
  const auto p2 = Clock::now();
  NodeSet cds;
  {
    Tracer::Scope span(tracer, "core.cds", t);
    cds = engine.cds();
  }
  const auto p3 = Clock::now();
  if (cfg.break_cds) {
    const NodeSet& heads = engine.clustering().heads;
    NodeSet heads_only;
    std::set_intersection(cds.begin(), cds.end(), heads.begin(), heads.end(),
                          std::back_inserter(heads_only));
    cds = std::move(heads_only);
  }
  s.probe = run_probe(g, cds, engine.clustering(), kMode, source, comps.first,
                      tracer, t);
  s.probe_ms = ms_between(p0, p1) + ms_between(p2, p3) + s.probe.si_ms +
               s.probe.build_dyn_ms + s.probe.sd_ms;
  ops.record(s.probe.si.complete());
  ops.record(s.probe.sd.complete());
  if (!s.probe.ok() && errors.size() < 8)
    errors.push_back("probe at tick " + std::to_string(t) + " reached SI " +
                     std::to_string(s.probe.si.reached) + " / SD " +
                     std::to_string(s.probe.sd.reached) + " of " +
                     std::to_string(s.probe.si.component));
  return s;
}

/// Per-run sums over the timed ticks (the deterministic fingerprint).
struct Totals {
  std::size_t ticks = 0;
  std::size_t link_changes = 0, head_changes = 0;
  std::size_t rounds = 0, msgs = 0;
  std::size_t regions = 0, rows_recomputed = 0, heads_reselected = 0;
  std::size_t probes = 0;
  double si_forward_ratio = 0.0, sd_forward_ratio = 0.0;
  double latency_hops = 0.0, delivery = 0.0;
  double cds_fraction = 0.0;

  void add(const Step& s, bool probed) {
    ++ticks;
    link_changes += s.facts.link_changes;
    head_changes += s.facts.head_changes;
    rounds += s.facts.rounds;
    msgs += s.facts.msgs.maintenance_total();
    regions += s.facts.regions;
    rows_recomputed += s.facts.rows_recomputed;
    heads_reselected += s.facts.heads_reselected;
    if (!probed) return;
    const ProbeResult& p = s.probe;
    ++probes;
    si_forward_ratio += ratio(static_cast<double>(p.si_forward),
                              static_cast<double>(p.si.component));
    sd_forward_ratio += ratio(static_cast<double>(p.sd_forward),
                              static_cast<double>(p.sd.component));
    latency_hops += 0.5 * (p.si_hops + p.sd_hops);
    delivery += 0.5 * (p.si.ratio() + p.sd.ratio());
  }
};

/// One repetition of a workload: a fresh set-up (placement + engine), the
/// warm-up ticks, then the timed ticks. `mix` and `engine` keep the
/// repetition's instances for the end-of-run check.
struct Repetition {
  bool ok = true;
  double setup_s = 0.0;
  double warmup_ms = 0.0;
  std::vector<Step> steps;  ///< timed steps
  std::uint64_t state_hash = 0;
  double cds_fraction = 0.0;
};

/// Session counters the traced run reports, summed over repetitions.
constexpr const char* kCounters[] = {
    "net.rounds",          "net.msg.maint_hello",   "net.msg.r1_status",
    "net.msg.r2_status",   "net.msg.ch_hop1",       "net.msg.ch_hop2",
    "net.msg.gateway",     "incr.hop1_rows_changed", "incr.hop2_rows_changed",
    "incr.hop1_rows_scanned", "incr.hop2_rows_scanned"};

Repetition run_repetition(const RunConfig& cfg, const exp::ChurnConfig& churn,
                          obs::Session* session, Tracer& tracer,
                          RunReport& rep,
                          std::unique_ptr<exp::MobilityMix>& mix,
                          std::unique_ptr<Engine>& engine,
                          std::map<std::string, double>& counters) {
  const WorkloadSpec& spec = cfg.spec;
  Repetition r;
  engine.reset();
  mix.reset();
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "setup.place", 0);
    mix = std::make_unique<exp::MobilityMix>(churn);
  }
  {
    Tracer::Scope span(tracer, "setup.engine", 0);
    engine = make_engine(spec, *mix, churn, kLanes, session);
  }
  r.setup_s = ms_between(t0, Clock::now()) * 1e-3;

  const obs::MetricsSnapshot before =
      session ? session->registry.snapshot() : obs::MetricsSnapshot{};
  manet::Rng probe_rng(cfg.seed ^ 0x70726f6265ULL);  // own stream: "probe"
  const std::size_t warm = spec.warmup_ticks;
  const std::size_t total = warm + timed_ticks(cfg.seconds);
  for (std::uint64_t t = 1; t <= total; ++t) {
    Step s =
        run_step(cfg, *mix, *engine, probe_rng, tracer, t, rep.ops, rep.errors);
    if (!s.ok) {
      r.ok = false;
      return r;
    }
    if (t <= warm)
      r.warmup_ms += s.move_ms + s.tick_ms + s.probe_ms;
    else
      r.steps.push_back(std::move(s));
  }
  if (session) {
    const obs::MetricsSnapshot after = session->registry.snapshot();
    for (const char* name : kCounters)
      counters[name] += static_cast<double>(after.counter_or(name) -
                                            before.counter_or(name));
  }
  r.state_hash = engine->state_hash();
  Tracer::Scope span(tracer, "core.cds", total);
  r.cds_fraction = static_cast<double>(engine->cds().size()) /
                   static_cast<double>(spec.nodes);
  return r;
}

/// Per timed tick, the fastest of the repetitions' values of `field`.
template <typename Field>
std::vector<double> best_of(const std::vector<Repetition>& runs, Field field) {
  std::vector<double> out;
  for (const Repetition& r : runs) {
    if (!r.ok) continue;
    if (out.empty()) {
      for (const Step& s : r.steps) out.push_back(field(s));
      continue;
    }
    for (std::size_t i = 0; i < out.size() && i < r.steps.size(); ++i)
      out[i] = std::min(out[i], field(r.steps[i]));
  }
  return out;
}

/// Mean of `field` over every timed step of every repetition.
template <typename Field>
double step_mean(const std::vector<Repetition>& runs, Field field) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const Repetition& r : runs)
    for (const Step& s : r.steps) {
      sum += static_cast<double>(field(s));
      ++count;
    }
  return ratio(sum, static_cast<double>(count));
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

ProbeResult run_probe(const graph::Graph& g, const NodeSet& cds,
                      const cluster::Clustering& clustering,
                      core::CoverageMode mode, NodeId source,
                      const std::vector<std::uint32_t>& component_of,
                      Tracer& tracer, std::uint64_t tick) {
  ProbeResult r;
  const auto t0 = Clock::now();
  manet::broadcast::BroadcastStats si;
  {
    Tracer::Scope span(tracer, "broadcast.si", tick);
    si = manet::broadcast::si_cds_broadcast(g, cds, source);
  }
  const auto t1 = Clock::now();
  core::DynamicBackbone dyn;
  {
    Tracer::Scope span(tracer, "core.build_dyn", tick);
    dyn = core::build_dynamic_backbone(g, clustering, mode);
  }
  const auto t2 = Clock::now();
  core::BroadcastResult sd;
  {
    Tracer::Scope span(tracer, "core.sd", tick);
    sd = core::dynamic_broadcast(g, dyn, source);
  }
  const auto t3 = Clock::now();
  r.si_ms = ms_between(t0, t1);
  r.build_dyn_ms = ms_between(t1, t2);
  r.sd_ms = ms_between(t2, t3);
  r.si = count_reach(si.received, component_of, source);
  r.sd = count_reach(sd.received, component_of, source);
  r.si_forward = si.forward_count();
  r.si_transmissions = si.transmissions;
  r.sd_forward = sd.forward_count();
  r.si_hops = si.latency_hops();
  r.sd_hops = sd.latency_hops();
  return r;
}

RunReport run_workload(const RunConfig& cfg) {
  const WorkloadSpec& spec = cfg.spec;
  const exp::ChurnConfig churn = churn_config(spec, cfg.seed);
  const double n = static_cast<double>(spec.nodes);
  const double lanes = static_cast<double>(kLanes);
  const bool is_proto = spec.engine == EngineKind::kProto;
  RunReport rep;
  Tracer tracer(cfg.trace);
  std::optional<obs::Session> session;
  if (cfg.trace) session.emplace();

  // ---- Repetitions (traced when this is the traced run).
  std::unique_ptr<exp::MobilityMix> mix;
  std::unique_ptr<Engine> engine;
  std::map<std::string, double> counters;
  std::vector<Repetition> runs;
  bool ok = true;
  std::size_t peak_rss = 0;
  for (std::size_t i = 0; i < kRepetitions && ok; ++i) {
    runs.push_back(run_repetition(cfg, churn, session ? &*session : nullptr,
                                  tracer, rep, mix, engine, counters));
    ok = runs.back().ok;
    // The first repetition's peak: later set-ups run on a heap the
    // earlier ones fragmented.
    if (i == 0) peak_rss = manet::peak_rss_bytes();
  }

  // ---- End-of-run correctness check (outside every timed region): the
  // final structure is a valid clustering, a from-scratch rebuild hashes
  // like the maintained state, and every repetition ended on that state.
  bool end_ok = ok;
  double rebuild_ms = 0.0;
  std::size_t cross_scope_late = 0;
  const std::uint64_t final_hash = runs.back().state_hash;
  if (ok) {
    const std::uint64_t t = spec.warmup_ticks + timed_ticks(cfg.seconds);
    Tracer::Scope verify_span(tracer, "verify", t);
    graph::Graph g;
    {
      Tracer::Scope span(tracer, "graph.freeze", t);
      g = engine->freeze();
    }
    const std::string why =
        cluster::validate_cluster_structure(g, engine->clustering());
    if (!why.empty()) {
      end_ok = false;
      rep.errors.push_back("final clustering invalid: " + why);
    }
    const auto r0 = Clock::now();
    std::uint64_t rebuilt = 0;
    {
      Tracer::Scope span(tracer, "verify.rebuild", t);
      rebuilt = core::backbone_state_hash(
          core::build_static_backbone(g, engine->clustering(), kMode));
    }
    rebuild_ms = ms_between(r0, Clock::now());
    if (rebuilt != final_hash) {
      end_ok = false;
      rep.errors.push_back("maintained state differs from the rebuild");
    }
    for (const Repetition& r : runs)
      if (r.state_hash != final_hash) {
        end_ok = false;
        rep.errors.push_back("repetitions ended on different states");
        break;
      }
    cross_scope_late = engine->cross_scope_late();
    if (cross_scope_late != 0) {
      end_ok = false;
      rep.errors.push_back("repair wave escaped its region (cross_scope_late " +
                           std::to_string(cross_scope_late) + ")");
    }
  }

  // ---- Traced run: repeat untraced (no session; the incremental facade
  // instead of the composition). Its tick times give the tracing
  // overhead, and it must end on the traced run's state.
  std::vector<Repetition> replays;
  if (cfg.trace && ok) {
    Tracer off(false);
    std::map<std::string, double> unused;
    for (std::size_t i = 0; i < runs.size() && end_ok; ++i) {
      replays.push_back(
          run_repetition(cfg, churn, nullptr, off, rep, mix, engine, unused));
      if (!replays.back().ok || replays.back().state_hash != final_hash) {
        end_ok = false;
        rep.errors.push_back("untraced replay ended on a different state");
      }
    }
  }
  rep.ops.end_check_ok = end_ok;
  rep.state_hash = final_hash;

  // ---- Deterministic fingerprint (identical in every repetition).
  Totals totals;
  for (const Step& s : runs.front().steps) totals.add(s, spec.probes);
  totals.cds_fraction = runs.front().cds_fraction;
  const double wt = static_cast<double>(totals.ticks);
  const double wp = static_cast<double>(totals.probes);
  add(rep.deterministic, "cds_fraction", totals.cds_fraction, "ratio");
  add(rep.deterministic, "link_changes_per_tick",
      ratio(static_cast<double>(totals.link_changes), wt), "count");
  add(rep.deterministic, "head_changes_per_tick",
      ratio(static_cast<double>(totals.head_changes), wt), "count");
  if (is_proto) {
    add(rep.deterministic, "maint_msgs_per_node_tick",
        ratio(static_cast<double>(totals.msgs), wt * n), "count");
    add(rep.deterministic, "rounds_per_tick",
        ratio(static_cast<double>(totals.rounds), wt), "count");
  } else {
    add(rep.deterministic, "regions_per_tick",
        ratio(static_cast<double>(totals.regions), wt), "count");
    add(rep.deterministic, "rows_recomputed_per_tick",
        ratio(static_cast<double>(totals.rows_recomputed), wt), "count");
    add(rep.deterministic, "heads_reselected_per_tick",
        ratio(static_cast<double>(totals.heads_reselected), wt), "count");
  }
  if (spec.probes) {
    add(rep.deterministic, "si_forward_ratio",
        ratio(totals.si_forward_ratio, wp), "ratio");
    add(rep.deterministic, "sd_forward_ratio",
        ratio(totals.sd_forward_ratio, wp), "ratio");
    add(rep.deterministic, "cast_latency_hops", ratio(totals.latency_hops, wp),
        "hops");
    add(rep.deterministic, "delivery_ratio", ratio(totals.delivery, wp),
        "ratio");
  }

  // ---- Timings: per tick, the fastest repetition.
  const std::vector<double> tick_ms =
      best_of(runs, [](const Step& s) { return s.tick_ms; });
  const std::vector<double> loop_ms =
      best_of(runs, [](const Step& s) { return s.move_ms + s.tick_ms; });
  const std::vector<double> step_ms = best_of(
      runs, [](const Step& s) { return s.move_ms + s.tick_ms + s.probe_ms; });
  std::vector<double> setup_s, warmup_ms;
  for (const Repetition& r : runs) {
    setup_s.push_back(r.setup_s);
    warmup_ms.push_back(r.warmup_ms);
  }
  const double tick_cpu_ms = step_mean(runs, [](const Step& s) {
    return s.tick_cpu_ms;
  });
  const double tick_wall_ms =
      step_mean(runs, [](const Step& s) { return s.tick_ms; });
  const double failed_frac = rep.ops.failed_frac();

  if (!cfg.trace) {
    add(rep.metrics, "setup_s", percentile(setup_s, 0.5), "s");
    add(rep.metrics, "ticks_per_s",
        ratio(static_cast<double>(loop_ms.size()), sum_of(loop_ms) * 1e-3),
        "1/s");
    add(rep.metrics, "tick_ms_p50", percentile(tick_ms, 0.5), "ms");
    add(rep.metrics, "tick_ms_p90", percentile(tick_ms, 0.9), "ms");
    add(rep.metrics, "step_ms_p50", percentile(step_ms, 0.5), "ms");
    add(rep.metrics, "rss_bytes_per_node", static_cast<double>(peak_rss) / n,
        "B");
    add(rep.metrics, "cds_fraction", totals.cds_fraction, "ratio");

    add(rep.extra, "timed_ticks", static_cast<double>(tick_ms.size()),
        "count");
    add(rep.extra, "repetitions", static_cast<double>(runs.size()), "count");
    add(rep.extra, "tick_ms_p90_samples_beyond",
        static_cast<double>(samples_beyond(tick_ms.size(), 0.9)), "count");
    add(rep.extra, "failed_frac", failed_frac, "ratio");
    for (const Metric& m : rep.deterministic)
      if (m.name != "cds_fraction") rep.extra.push_back(m);
    if (spec.probes) {
      const std::vector<double> cast_ms =
          best_of(runs, [](const Step& s) { return s.probe_ms; });
      add(rep.extra, "cast_ms_p50", percentile(cast_ms, 0.5), "ms");
      add(rep.extra, "cast_ms_p90", percentile(cast_ms, 0.9), "ms");
    }
    return rep;
  }

  // ---- Traced run: per-layer numbers from the spans (all repetitions).
  const std::size_t warm = spec.warmup_ticks;
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times_ms(spans);
  auto durations = [&](std::string_view name, bool timed_only) {
    std::vector<double> v;
    for (const Span& s : spans)
      if (name == s.name && (!timed_only || s.tick > warm))
        v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    return v;
  };
  auto p50 = [&](std::string_view name) {
    return percentile(durations(name, true), 0.5);
  };
  auto counter = [&](const char* name) { return counters[name]; };
  const double traced_p50 = percentile(tick_ms, 0.5);
  const double untraced_p50 = percentile(
      best_of(replays, [](const Step& s) { return s.tick_ms; }), 0.5);
  const double all_ticks = static_cast<double>(
      runs.size() * (warm + timed_ticks(cfg.seconds)));
  const double cpu_util = ratio(tick_cpu_ms, lanes * tick_wall_ms);

  add(rep.metrics, "exp.advance_ms", p50("exp.advance"), "ms");
  add(rep.metrics, "engine.stage_ms", p50("engine.stage"), "ms");
  add(rep.metrics, "setup.place_s",
      percentile(durations("setup.place", false), 0.5) * 1e-3, "s");
  add(rep.metrics, "setup.engine_s",
      percentile(durations("setup.engine", false), 0.5) * 1e-3, "s");
  add(rep.metrics, "warmup_ms", percentile(warmup_ms, 0.5), "ms");
  add(rep.metrics, "warmup_ticks", static_cast<double>(warm), "count");
  add(rep.metrics, "tick.traced_ms_p50", traced_p50, "ms");
  add(rep.metrics, "tick.cpu_util", cpu_util, "ratio");
  add(rep.metrics, "tick.link_changes",
      ratio(static_cast<double>(totals.link_changes), wt), "count");
  add(rep.metrics, "tick.head_changes",
      ratio(static_cast<double>(totals.head_changes), wt), "count");
  add(rep.metrics, "graph.freeze_ms",
      percentile(durations("graph.freeze", false), 0.5), "ms");
  add(rep.metrics, "core.cds_ms",
      percentile(durations("core.cds", false), 0.5), "ms");
  add(rep.metrics, "verify.rebuild_ms", rebuild_ms, "ms");
  add(rep.metrics, "trace.overhead_ms", traced_p50 - untraced_p50, "ms");

  add(rep.extra, "trace.untraced_tick_ms_p50", untraced_p50, "ms");
  add(rep.extra, "failed_frac", failed_frac, "ratio");
  std::map<std::string, std::vector<double>> self_by_name;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].tick > warm) self_by_name[spans[i].name].push_back(self[i]);
  for (const auto& [name, v] : self_by_name)
    add(rep.extra, name + ".self_ms_p50", percentile(v, 0.5), "ms");

  if (is_proto) {
    add(rep.extra, "proto.tick_ms", p50("proto.tick"), "ms");
    add(rep.extra, "proto.cpu_util", cpu_util, "ratio");
    add(rep.extra, "proto.mirror_ms",
        step_mean(runs, [](const Step& s) { return s.facts.mirror_ms; }), "ms");
    add(rep.extra, "proto.deliver_cpu_ms",
        step_mean(runs, [](const Step& s) { return s.facts.deliver_cpu_ms; }),
        "ms");
    add(rep.extra, "proto.node_step_cpu_ms",
        step_mean(runs, [](const Step& s) { return s.facts.node_step_cpu_ms; }),
        "ms");
    add(rep.extra, "net.rounds", ratio(counter("net.rounds"), all_ticks),
        "count");
    add(rep.extra, "net.msgs.hello",
        ratio(counter("net.msg.maint_hello"), all_ticks), "count");
    add(rep.extra, "net.msgs.repair",
        ratio(counter("net.msg.r1_status") + counter("net.msg.r2_status"),
              all_ticks),
        "count");
    add(rep.extra, "net.msgs.rows",
        ratio(counter("net.msg.ch_hop1") + counter("net.msg.ch_hop2"),
              all_ticks),
        "count");
    add(rep.extra, "net.msgs.gateway",
        ratio(counter("net.msg.gateway"), all_ticks), "count");
    add(rep.extra, "net.deliveries",
        step_mean(runs, [](const Step& s) { return s.facts.deliveries; }),
        "count");
    add(rep.extra, "net.cross_scope_late",
        static_cast<double>(cross_scope_late), "count");
  } else {
    const double repair_cpu =
        step_mean(runs, [](const Step& s) { return s.facts.repair_cpu_ms; });
    const double repair_wall =
        step_mean(runs, [](const Step& s) { return s.facts.repair_ms; });
    add(rep.extra, "incr.commit_ms", p50("incr.commit"), "ms");
    add(rep.extra, "incr.repair_ms", p50("incr.repair"), "ms");
    add(rep.extra, "incr.regions",
        ratio(static_cast<double>(totals.regions), wt), "count");
    add(rep.extra, "incr.largest_region_share",
        step_mean(runs,
                  [](const Step& s) { return s.facts.largest_region_share; }),
        "ratio");
    add(rep.extra, "incr.link_changes",
        ratio(static_cast<double>(totals.link_changes), wt), "count");
    add(rep.extra, "incr.rows_recomputed",
        ratio(static_cast<double>(totals.rows_recomputed), wt), "count");
    add(rep.extra, "incr.heads_reselected",
        ratio(static_cast<double>(totals.heads_reselected), wt), "count");
    add(rep.extra, "incr.row_change_ratio",
        ratio(counter("incr.hop1_rows_changed") +
                  counter("incr.hop2_rows_changed"),
              counter("incr.hop1_rows_scanned") +
                  counter("incr.hop2_rows_scanned")),
        "ratio");
    add(rep.extra, "incr.cpu_util", ratio(repair_cpu, lanes * repair_wall),
        "ratio");
  }
  if (spec.probes) {
    add(rep.extra, "core.build_dyn_ms", p50("core.build_dyn"), "ms");
    add(rep.extra, "core.sd_ms", p50("core.sd"), "ms");
    add(rep.extra, "core.sd_forward_nodes",
        step_mean(runs, [](const Step& s) { return s.probe.sd_forward; }),
        "count");
    add(rep.extra, "broadcast.si_ms", p50("broadcast.si"), "ms");
    add(rep.extra, "broadcast.si_forward_nodes",
        step_mean(runs, [](const Step& s) { return s.probe.si_forward; }),
        "count");
    add(rep.extra, "broadcast.si_transmissions",
        step_mean(runs, [](const Step& s) { return s.probe.si_transmissions; }),
        "count");
    add(rep.extra, "verify.components_ms", p50("verify.components"), "ms");
  }
  if (!cfg.trace_out.empty() && !tracer.write_chrome_trace(cfg.trace_out))
    rep.errors.push_back("could not write the trace to " + cfg.trace_out);
  return rep;
}

}  // namespace perfbench
