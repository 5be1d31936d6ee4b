#include "incr/pipeline.hpp"

#include <iostream>
#include <utility>

#include "cluster/lcc.hpp"
#include "common/assert.hpp"
#include "core/static_backbone.hpp"
#include "geom/unit_disk.hpp"
#include "obs/session.hpp"

namespace manet::incr {
namespace {

void print_capped(std::ostream& out, const char* label, const NodeSet& nodes,
                  std::size_t cap = 48) {
  out << label << " (" << nodes.size() << "):";
  for (std::size_t i = 0; i < std::min(nodes.size(), cap); ++i)
    out << ' ' << nodes[i];
  if (nodes.size() > cap) out << " ...";
  out << '\n';
}

/// Satellite of the oracle mode: when the cross-check trips, the
/// exception alone says *what* diverged but not *which* tick or *which*
/// dirty region. Dump the flight recorder and the offending tick's
/// delta to stderr so the failure is diagnosable post-mortem.
void dump_flight_recorder(const obs::Session* obs, std::uint64_t tick,
                          const EdgeDelta& delta, const std::string& why) {
  std::ostream& err = std::cerr;
  err << "\n=== incr oracle mismatch — flight-recorder dump ===\n"
      << "tick " << tick << ": " << why << '\n'
      << "delta: +" << delta.added.size() << " links, -"
      << delta.removed.size() << " links\n";
  print_capped(err, "dirty set", delta.touched);
  if (obs) {
    err << "--- metrics ---\n" << obs->registry.snapshot().to_text();
    err << "--- flight recorder ---\n";
    obs->trace.dump_tail(err, 120);
  }
  err << "=== end flight-recorder dump ===" << std::endl;
}

}  // namespace

IncrementalPipeline::IncrementalPipeline(std::vector<geom::Point> positions,
                                         double range, double width,
                                         double height,
                                         PipelineOptions options)
    : tracker_(std::move(positions), range, width, height, options.grid,
               options.streaming_build),
      backbone_(tracker_.adjacency(), options.mode),
      options_(options),
      pool_(options.threads) {
  MANET_REQUIRE(options_.pipeline_depth >= 1 && options_.pipeline_depth <= 2,
                "pipeline_depth must be 1 or 2: consecutive repairs are "
                "sequentially dependent, so deeper pipelines cannot exist");
  MANET_REQUIRE(!(options_.oracle_check && options_.pipeline_depth > 1),
                "oracle mode must observe every tick synchronously; use "
                "pipeline_depth 1");
  backbone_.set_defer_trace(options_.pipeline_depth > 1);
  if (options_.oracle_check) oracle_previous_ = backbone_.clustering();
  set_obs(options_.obs);
}

IncrementalPipeline::~IncrementalPipeline() {
  try {
    join_pending();
  } catch (...) {
    // A repair that threw has already poisoned the maintained state;
    // destruction is not the place to escalate.
  }
}

void IncrementalPipeline::set_obs(obs::Session* session) {
  options_.obs = session;
  backbone_.set_obs(session);
  pool_.set_obs(session);
  if (session) {
    auto& r = session->registry;
    ticks_counter_ = r.counter("incr.ticks");
    staged_counter_ = r.counter("incr.staged_moves");
    dirty_cells_counter_ = r.counter("incr.dirty_cells");
    regions_counter_ = r.counter("incr.regions");
    region_size_hist_ = r.histogram("incr.region_size",
                                    {1, 2, 4, 8, 16, 32, 64, 128, 256});
    compactions_gauge_ = r.gauge("incr.slot_compactions");
    // Configuration record, not a measurement — but it differs between
    // runs that must otherwise snapshot identically (depth 1 vs 2), so
    // it lives under the .pool. prefix that deterministic() drops.
    r.gauge("incr.pool.pipeline_depth")
        .set(static_cast<std::int64_t>(options_.pipeline_depth));
  } else {
    ticks_counter_ = obs::Counter();
    staged_counter_ = obs::Counter();
    dirty_cells_counter_ = obs::Counter();
    regions_counter_ = obs::Counter();
    region_size_hist_ = obs::Histogram();
    compactions_gauge_ = obs::Gauge();
  }
}

TickStats IncrementalPipeline::repair(InFlight& s) {
  return backbone_.apply_parallel(tracker_.adjacency(), s.delta, s.partition,
                                  pool_);
}

TickStats IncrementalPipeline::join_pending() {
  if (!pending_) return {};
  InFlight& p = *pending_;
  pending_ = nullptr;
  pool_.wait(p.ticket);
  backbone_.flush_trace();
  return p.stats;
}

TickStats IncrementalPipeline::drain() { return join_pending(); }

TickStats IncrementalPipeline::tick() {
  ++tick_index_;
  obs::TraceRecorder* tr = options_.obs ? &options_.obs->trace : nullptr;
  obs::Span tick_span(tr, "incr", "tick", tick_index_, "links");
  ticks_counter_.add();
  staged_counter_.add(tracker_.staged_count());

  // Pipelined, this tick commits against the frozen overlay while the
  // previous tick's repair is still reading it (both read-only — S31),
  // so the edge edits are deferred; the other slot belongs to that
  // repair, this one finished two ticks ago.
  const bool pipelined = options_.pipeline_depth > 1;
  InFlight& cur = slots_[pipelined ? tick_index_ % 2 : 0];
  MANET_ASSERT(&cur != pending_, "commit slot still owned by a repair");
  {
    obs::Span span(tr, "incr", "delta_commit", tick_index_, "links");
    CommitOptions copts;
    copts.regions = &cur.partition;
    copts.pool = &pool_;
    copts.defer_adjacency = pipelined;
    cur.delta = tracker_.commit(copts);
    span.set_arg(cur.delta.link_changes());
  }
  dirty_cells_counter_.add(tracker_.last_cells_scanned());
  compactions_gauge_.set(static_cast<std::int64_t>(tracker_.compactions()));
  regions_counter_.add(cur.partition.count);
  for (const auto& cells : cur.partition.core_cells)
    region_size_hist_.record(cells.size());
  tick_span.set_arg(cur.delta.link_changes());

  if (!pipelined) {
    const TickStats stats = repair(cur);
    if (options_.oracle_check) check_oracle(cur.delta);
    return stats;
  }
  // Join the previous repair; its stats become this call's return
  // value. Only now is the overlay safe to advance.
  const TickStats previous = join_pending();
  {
    obs::Span span(tr, "incr", "delta_apply", tick_index_, "links");
    tracker_.apply_delta(cur.delta);
  }
  cur.ticket = pool_.submit(
      1, [this, &cur](std::size_t, std::size_t) { cur.stats = repair(cur); });
  pending_ = &cur;
  return previous;
}

void IncrementalPipeline::check_oracle(const EdgeDelta& delta) {
  // Full rebuild from first principles: re-derive the topology from the
  // raw positions and repair the previous tick's clustering with the
  // batch LCC pass, then compare every maintained structure bit for bit.
  obs::TraceRecorder* tr = options_.obs ? &options_.obs->trace : nullptr;
  obs::Span span(tr, "incr", "oracle_check", tick_index_);
  const graph::Graph frozen = tracker_.adjacency().freeze();
  const graph::Graph reference =
      geom::unit_disk_graph(tracker_.positions(), tracker_.range());
  const bool adjacency_ok = frozen.edges() == reference.edges();
  if (!adjacency_ok)
    dump_flight_recorder(options_.obs, tick_index_, delta,
                         "maintained adjacency diverged from "
                         "unit_disk_graph over the current positions");
  MANET_REQUIRE(adjacency_ok,
                "incr oracle: maintained adjacency diverged from "
                "unit_disk_graph over the current positions");
  cluster::Clustering oracle_clustering =
      cluster::lcc_update(frozen, oracle_previous_);
  const core::StaticBackbone oracle =
      core::build_static_backbone(frozen, oracle_clustering, options_.mode);
  const std::string mismatch = backbone_.diff_against(oracle);
  if (!mismatch.empty())
    dump_flight_recorder(options_.obs, tick_index_, delta, mismatch);
  MANET_REQUIRE(mismatch.empty(), "incr oracle: " + mismatch);
  oracle_previous_ = std::move(oracle_clustering);
}

}  // namespace manet::incr
