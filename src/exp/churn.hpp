// Churn maintenance experiment: what does it cost to keep the static
// backbone current while the network moves?
//
// The paper's closing argument says maintaining a static backbone at all
// times is costly; PR sequences so far quantified the *churn* (how much
// structure changes per snapshot). This experiment quantifies the
// *compute*: per mobility tick, a small fraction of nodes moves, and we
// time (a) the incremental engine (src/incr) repairing the maintained
// state from the link delta against (b) the batch baseline rebuilding
// the unit-disk graph, repairing the clustering with a full LCC pass and
// rebuilding tables/coverage/selections from scratch. Both paths produce
// bit-identical structures (the engine's oracle mode asserts it), so the
// ratio is a pure algorithmic speedup.
#pragma once

#include <cstdint>
#include <string>

#include "core/neighbor_tables.hpp"
#include "geom/spatial_grid.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::exp {

/// One churn-maintenance configuration.
struct ChurnConfig {
  enum class Model { kWaypoint, kRandomDirection };

  std::size_t nodes = 500;
  double degree = 6.0;          ///< target average degree (paper: 6 / 18)
  std::size_t ticks = 100;      ///< mobility ticks to simulate
  double move_fraction = 0.01;  ///< fraction of nodes moving per tick
  Model model = Model::kWaypoint;
  core::CoverageMode mode = core::CoverageMode::kTwoPointFiveHop;
  std::uint64_t seed = 0;
  double width = 100.0;
  double height = 100.0;
  /// Cross-check the engine against the full rebuild every tick (slow;
  /// for tests — the bench keeps it off so timings stay honest).
  bool oracle_check = false;
  /// Also time the batch rebuild baseline each tick. Off lets overhead
  /// measurements isolate the incremental path.
  bool rebuild_baseline = true;
  /// Observability session threaded into the incremental pipeline
  /// (per-phase spans, `incr.*` metrics) and the run loop itself.
  /// nullptr = unobserved. Must outlive run_churn().
  obs::Session* obs = nullptr;
  /// Execution lanes for the engine's repair
  /// (incr::PipelineOptions::threads). 1 = every stage inline.
  std::size_t threads = 1;
  /// Tick pipelining (incr::PipelineOptions::pipeline_depth): 2 =
  /// overlap each tick's repair with the next tick's ingest + commit.
  /// Incompatible with oracle_check; the final state and hash are
  /// identical to depth 1.
  std::size_t pipeline_depth = 1;
  /// Run the rebuild baseline every k-th tick (1 = every tick). The
  /// 10k–100k scaling rows keep this coarse so the O(n) rebuild doesn't
  /// dominate wall-clock; reported means stay per-executed-tick.
  std::size_t rebuild_every = 1;
  /// Attempts at a connected initial topology before settling for a
  /// disconnected one (the paper's filter). Large sparse configs are
  /// essentially never connected — pass 1 to skip the wasted retries.
  std::size_t connect_attempts = 100;
  /// Fail the run (std::invalid_argument naming the exhausted budget)
  /// instead of silently continuing on a disconnected layout when every
  /// connect attempt is rejected.
  bool require_connected = false;
  /// Cell storage for the engine's grids (incr::PipelineOptions::grid):
  /// kSparse exercises the O(n) interned index regardless of lattice
  /// size. State hashes are identical in every mode.
  geom::GridIndex grid = geom::GridIndex::kAuto;
  /// Build the initial topology CSR with the streaming counting sweep
  /// (incr::PipelineOptions::streaming_build) — same graph, lower
  /// cold-build peak RSS.
  bool streaming_build = false;
  /// Relabel the initial layout into spatial-grid slot order
  /// (geom::cell_order_layout) before simulating: node ids become
  /// cell-major, which keeps the engine's sweeps cache-friendly at large
  /// n. Changes node labels (a different but equally distributed run),
  /// so head-to-head hash comparisons must use it on both sides.
  bool cell_order = false;
  /// Generate the initial placement cell-by-cell
  /// (geom::generate_unit_disk_cell_order) and check connectivity with
  /// a union-find sweep instead of building a throwaway graph per
  /// rejection-sampling attempt: the cold start's working memory is
  /// O(occupied cells) beyond the positions themselves. The layout
  /// comes out cell-major already, so this subsumes `cell_order`
  /// (a different but equally distributed run than the non-streaming
  /// path — hash comparisons must use it on both sides).
  bool streaming_placement = false;
};

/// Aggregated outcome of one churn run.
struct ChurnResult {
  std::size_t ticks = 0;
  double incremental_ms_per_tick = 0.0;  ///< delta-driven engine
  /// End-to-end wall clock of the incremental side (per-tick loop cost
  /// plus the final drain), per tick. Equals incremental_ms_per_tick
  /// for synchronous runs; under pipelining it is the honest multi-core
  /// number — repair time hidden behind ingest does not show up here.
  double wall_ms_per_tick = 0.0;
  double rebuild_ms_per_tick = 0.0;      ///< graph + LCC + backbone rebuild
  double speedup = 0.0;                  ///< rebuild / incremental
  // Mean per-tick churn (MaintenanceDelta definitions).
  double mean_link_changes = 0.0;
  double mean_head_changes = 0.0;
  double mean_role_changes = 0.0;
  double mean_backbone_changes = 0.0;
  double mean_coverage_changes = 0.0;
  // Mean per-tick dirty-region size (engine work actually done).
  double mean_rows_recomputed = 0.0;
  double mean_heads_reselected = 0.0;
  double mean_regions = 0.0;  ///< independent repair regions per tick
  /// FNV-1a digest of the final maintained state (clustering, tables,
  /// coverage, selections, CDS). Runs differing only in `threads` must
  /// produce the same digest — the determinism soaks compare it.
  std::uint64_t state_hash = 0;
  /// Process peak RSS in bytes after the run (0 where unsupported).
  /// Monotone per process: run ascending sizes to read per-size peaks.
  std::size_t peak_rss_bytes = 0;
  /// Whether the initial topology was connected, and how many layouts
  /// the rejection sampler generated to get it (== connect_attempts on
  /// exhaustion).
  bool connected = false;
  std::size_t connect_attempts_used = 0;
};

/// Human-readable tag ("waypoint" / "direction") for reports.
std::string model_name(ChurnConfig::Model model);

/// Runs one churn-maintenance simulation. Deterministic in config.seed.
ChurnResult run_churn(const ChurnConfig& config);

}  // namespace manet::exp
