// Layer 4 of the incremental maintenance engine: the facade gluing the
// DeltaTracker (positions -> link deltas) to the IncrementalBackbone
// (link deltas -> repaired clustering/tables/coverage/selections/CDS),
// plus an oracle cross-check mode that rebuilds everything from scratch
// after every tick and asserts bitwise equality — the safety net that
// lets the delta path be trusted in production and benchmarked honestly.
//
// Each tick's delta is partitioned into independent dirty regions
// (DeltaTracker) and repaired by IncrementalBackbone::apply_parallel on
// a persistent WorkerPool — with one lane, a pool of zero threads and
// the repair's stages run inline. The maintained state — and therefore
// materialize(), metric snapshots and every downstream artifact — is
// bitwise identical at any thread count (the determinism soaks and the
// oracle pin this).
#pragma once

#include <string>
#include <vector>

#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"
#include "geom/point.hpp"
#include "incr/backbone.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "obs/metrics.hpp"

namespace manet::incr {

/// Engine configuration.
struct PipelineOptions {
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  /// After every tick, rebuild the full static backbone from scratch
  /// (plus a from-scratch unit-disk graph) and require bitwise equality
  /// with the maintained state. Orders of magnitude slower — for tests
  /// and the equivalence bench column only.
  bool oracle_check = false;
  /// Observability session: per-phase flight-recorder spans and `incr.*`
  /// metrics. nullptr = not observed. Must outlive the pipeline. On an
  /// oracle mismatch the recorder tail and the offending tick's dirty
  /// set are dumped to stderr before the throw.
  obs::Session* obs = nullptr;
  /// Execution lanes of the pool the repair and the delta-commit cell
  /// scans run on: the calling thread plus k-1 persistent workers
  /// (1 = no worker threads, every stage inline on the caller).
  std::size_t threads = 1;
  /// Tick pipelining. 1 = tick() runs the repair on the caller. 2 =
  /// tick t's repair runs as an async pool batch while the caller stages
  /// and commits tick t+1 (the commit diffs the frozen overlay read-only
  /// and defers its edge edits, so the two overlap safely — DESIGN
  /// S31). tick() then returns the *previous* tick's stats; call
  /// drain() to join the last repair. The maintained state after drain
  /// is bitwise identical to depth 1 at any thread count. Depth > 2 is
  /// impossible: tick t+1's repair needs tick t's repaired state.
  /// Incompatible with oracle_check (which must observe every tick
  /// synchronously).
  std::size_t pipeline_depth = 1;
  /// Cell storage of the DeltaTracker grid (and of the SpatialGrid used
  /// for the initial topology build): kAuto = dense until the lattice
  /// outgrows the dense clamp, kSparse = O(n) interned occupied cells at
  /// full lattice resolution. The maintained state is identical in every
  /// mode.
  geom::GridIndex grid = geom::GridIndex::kAuto;
  /// Build the initial unit-disk CSR with the streaming two-pass counting
  /// sweep instead of the edge-list GraphBuilder — same graph, roughly
  /// half the cold-build peak RSS.
  bool streaming_build = false;
};

/// Delta-driven replacement for the per-tick full rebuild: feed it the
/// positions that moved, get back the repaired backbone and the tick's
/// churn accounting.
class IncrementalPipeline {
 public:
  IncrementalPipeline(std::vector<geom::Point> positions, double range,
                      double width, double height, PipelineOptions options);
  /// Joins any in-flight repair before tearing the pool down.
  ~IncrementalPipeline();

  std::size_t size() const { return tracker_.size(); }
  const std::vector<geom::Point>& positions() const {
    return tracker_.positions();
  }
  const graph::DynamicAdjacency& adjacency() const {
    return tracker_.adjacency();
  }
  const IncrementalBackbone& backbone() const { return backbone_; }
  const cluster::Clustering& clustering() const {
    return backbone_.clustering();
  }

  /// Stages a position update (applied at the next tick()).
  void stage_move(NodeId v, geom::Point p) { tracker_.stage_move(v, p); }

  /// Attaches (or detaches, with nullptr) an observability session after
  /// construction; equivalent to having passed it in PipelineOptions.
  /// Call between ticks, not during one.
  void set_obs(obs::Session* session);

  /// Commits all staged moves and repairs every maintained structure.
  /// With oracle_check on, throws std::invalid_argument describing the
  /// first mismatch against the full rebuild (i.e. an engine bug).
  /// With pipeline_depth 2 the repair is launched asynchronously and
  /// the stats of the *previous* tick are returned (zeros on the first
  /// call); the maintained backbone lags the topology by the in-flight
  /// tick until drain().
  TickStats tick();

  /// Joins the in-flight repair (pipeline_depth 2) and returns its
  /// tick's stats; zeros when nothing is pending. Synchronous engines
  /// return zeros immediately. After drain() the maintained state
  /// equals what the synchronous engine would hold after the same
  /// moves, bit for bit.
  TickStats drain();

  /// CSR snapshot of the maintained topology.
  graph::Graph freeze_graph() const { return tracker_.adjacency().freeze(); }

  /// Copies the maintained state into the batch StaticBackbone shape.
  core::StaticBackbone materialize() const { return backbone_.materialize(); }

 private:
  /// One tick's commit output and repair. Depth 1 uses slot 0 only; at
  /// depth 2, while tick t's repair reads its slot, tick t+1's commit
  /// fills the other — never more than one repair in flight, so two
  /// slots suffice.
  struct InFlight {
    EdgeDelta delta;
    RegionPartition partition;
    TickStats stats;
    WorkerPool::Ticket ticket;
  };

  /// Runs `s`'s repair on the caller (the pool fans out its stages).
  TickStats repair(InFlight& s);
  /// Oracle mode: rebuilds everything from scratch and requires bitwise
  /// equality with the maintained state.
  void check_oracle(const EdgeDelta& delta);
  /// Joins the pending repair slot, flushes its buffered trace spans,
  /// and returns its stats; zeros when nothing is pending.
  TickStats join_pending();

  DeltaTracker tracker_;
  IncrementalBackbone backbone_;
  PipelineOptions options_;
  WorkerPool pool_;
  std::uint64_t tick_index_ = 0;
  InFlight slots_[2];
  InFlight* pending_ = nullptr;  ///< slot whose repair is in flight
  obs::Counter ticks_counter_;
  obs::Counter staged_counter_;
  obs::Counter dirty_cells_counter_;
  obs::Counter regions_counter_;
  obs::Histogram region_size_hist_;
  /// Sparse intern-table compactions so far — a pure function of the
  /// commit history, so it stays in the deterministic snapshot.
  obs::Gauge compactions_gauge_;
  /// Previous oracle clustering (oracle mode): the full-rebuild path is
  /// lcc_update from the previous tick's structure, exactly what the
  /// engine repairs incrementally.
  cluster::Clustering oracle_previous_;
};

}  // namespace manet::incr
