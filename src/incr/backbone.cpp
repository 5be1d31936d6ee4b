#include "incr/backbone.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "core/state_hash.hpp"
#include "core/table_kernels.hpp"
#include "incr/delta_tracker.hpp"
#include "incr/worker_pool.hpp"
#include "obs/session.hpp"

namespace manet::incr {
namespace {

/// LocalSelectionView over the mutable adjacency and the maintained
/// table rows — the same interface the batch TablesView adapts, so
/// core::select_gateways_local runs the identical greedy either way.
class OverlayView final : public core::LocalSelectionView {
 public:
  OverlayView(const graph::DynamicAdjacency& g,
              const core::NeighborTables& tables, NodeId head)
      : tables_(tables) {
    const auto nb = g.neighbors(head);
    neighbors_.assign(nb.begin(), nb.end());
  }
  const NodeSet& neighbors() const override { return neighbors_; }
  const NodeSet& hop1(NodeId v) const override { return tables_.ch_hop1[v]; }
  const std::vector<core::Hop2Entry>& hop2(NodeId v) const override {
    return tables_.ch_hop2[v];
  }

 private:
  const core::NeighborTables& tables_;
  NodeSet neighbors_;
};

/// Accumulates a sorted-unique dirty set via closed neighborhoods.
class DirtySet {
 public:
  explicit DirtySet(std::size_t universe) : seen_(universe) {}
  void add(NodeId v) {
    if (seen_.set(v)) nodes_.push_back(v);
  }
  void add_closed_neighborhood(const graph::DynamicAdjacency& g, NodeId v) {
    add(v);
    for (const NodeId w : g.neighbors(v)) add(w);
  }
  NodeSet take() {
    normalize(nodes_);
    return std::move(nodes_);
  }

 private:
  graph::NodeBitset seen_;
  NodeSet nodes_;
};

}  // namespace

/// obs::Span lookalike that lands in one track of the backbone's span
/// buffer instead of the recorder. `tr == nullptr` disables.
class IncrementalBackbone::BufferedSpan {
 public:
  BufferedSpan(obs::TraceRecorder* tr, std::vector<SpanRec>& track,
               const char* name, const char* arg_name)
      : tr_(tr), track_(track), name_(name), arg_name_(arg_name) {
    if (tr_) start_ns_ = tr_->now_ns();
  }
  ~BufferedSpan() {
    if (tr_)
      track_.push_back(
          {name_, arg_name_, start_ns_, tr_->now_ns() - start_ns_, arg_});
  }
  void set_arg(std::uint64_t v) { arg_ = v; }
  BufferedSpan(const BufferedSpan&) = delete;
  BufferedSpan& operator=(const BufferedSpan&) = delete;

 private:
  obs::TraceRecorder* tr_;
  std::vector<SpanRec>& track_;
  const char* name_;
  const char* arg_name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

struct IncrementalBackbone::Stages {
  WorkerPool* pool;  ///< nullptr: every job runs inline on the caller
  obs::TraceRecorder* tr;
  std::vector<std::vector<SpanRec>>& spans;

  /// A stage span on the driver's track.
  BufferedSpan span(const char* name, const char* arg_name) {
    return BufferedSpan(tr, spans[0], name, arg_name);
  }

  /// Runs fn(job, lane) for every job in [0, jobs). Inline the caller
  /// runs them in order on lane 0; on the pool each job also buffers a
  /// `name` span on its lane's track, whose `items` argument is fn's
  /// return value.
  template <typename Fn>
  void run(const char* name, std::size_t jobs, Fn&& fn) {
    if (!pool) {
      for (std::size_t job = 0; job < jobs; ++job) fn(job, 0);
      return;
    }
    pool->run(jobs, [&](std::size_t job, std::size_t lane) {
      BufferedSpan s(tr, spans[lane + 1], name, "items");
      s.set_arg(fn(job, lane));
    });
  }

  /// Runs body(begin, end, out) over ascending contiguous chunks of
  /// [0, items) — one chunk inline, a few per lane on the pool so an
  /// unlucky heavy chunk can't serialize the stage — and returns the
  /// chunk outputs concatenated in chunk order: what one ascending pass
  /// produces, at any lane count.
  template <typename Out, typename Body>
  std::vector<Out> scan(const char* name, std::size_t items, Body&& body) {
    if (items == 0) return {};
    const std::size_t target = pool ? std::min(items, pool->lanes() * 4) : 1;
    const std::size_t size = (items + target - 1) / target;
    std::vector<std::vector<Out>> parts((items + size - 1) / size);
    run(name, parts.size(), [&](std::size_t c, std::size_t) {
      const std::size_t begin = c * size;
      const std::size_t end = std::min(items, begin + size);
      body(begin, end, parts[c]);
      return end - begin;
    });
    for (std::size_t c = 1; c < parts.size(); ++c)
      parts[0].insert(parts[0].end(), parts[c].begin(), parts[c].end());
    return std::move(parts[0]);
  }
};

void IncrementalBackbone::flush_trace() {
  for (std::size_t track = 0; track < spans_.size(); ++track) {
    if (obs_)
      for (const SpanRec& s : spans_[track])
        obs_->trace.complete("incr", s.name, s.ts, s.dur, ticks_applied_,
                             static_cast<std::uint32_t>(track), s.arg_name,
                             s.arg);
    spans_[track].clear();
  }
}

std::uint64_t IncrementalBackbone::state_hash() const {
  return core::backbone_state_hash(clustering_, tables_, coverage_,
                                   selection_, gateways(), cds());
}

IncrementalBackbone::IncrementalBackbone(const graph::DynamicAdjacency& g,
                                         core::CoverageMode mode) {
  // One batch build seeds every cache; ticks only repair from here on.
  auto full = core::build_static_backbone(g.freeze(), mode);
  clustering_ = std::move(full.clustering);
  tables_ = std::move(full.tables);
  coverage_ = std::move(full.coverage);
  selection_ = std::move(full.selection);

  const std::size_t n = g.order();
  head_bits_ = graph::NodeBitset(n);
  for (const NodeId h : clustering_.heads) head_bits_.set(h);
  selection_refs_.assign(n, 0);
  cds_bits_ = graph::NodeBitset(n);
  for (const NodeId h : clustering_.heads) {
    cds_bits_.set(h);
    for (const NodeId v : selection_[h].gateways) {
      ++selection_refs_[v];
      cds_bits_.set(v);
    }
  }
}

void IncrementalBackbone::set_obs(obs::Session* session) {
  obs_ = session;
  obs_handles_ = {};
  if (!session) return;
  auto& r = session->registry;
  obs_handles_.links_appeared = r.counter("incr.links_appeared");
  obs_handles_.links_disappeared = r.counter("incr.links_disappeared");
  obs_handles_.reaffiliations = r.counter("incr.reaffiliations");
  obs_handles_.role_changes = r.counter("incr.role_changes");
  obs_handles_.heads_declared = r.counter("incr.heads_declared");
  obs_handles_.heads_resigned = r.counter("incr.heads_resigned");
  obs_handles_.hop1_rows_scanned = r.counter("incr.hop1_rows_scanned");
  obs_handles_.hop1_rows_changed = r.counter("incr.hop1_rows_changed");
  obs_handles_.hop2_rows_scanned = r.counter("incr.hop2_rows_scanned");
  obs_handles_.hop2_rows_changed = r.counter("incr.hop2_rows_changed");
  obs_handles_.heads_reselected = r.counter("incr.heads_reselected");
  obs_handles_.coverage_changes = r.counter("incr.coverage_changes");
  obs_handles_.backbone_flips = r.counter("incr.backbone_flips");
  obs_handles_.links_per_tick = r.histogram(
      "incr.links_per_tick", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  obs_handles_.rows_per_tick = r.histogram(
      "incr.rows_per_tick", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
}

void IncrementalBackbone::apply_selection_refs(const NodeSet& old_gateways,
                                               const NodeSet& new_gateways,
                                               NodeSet& cds_candidates) {
  for (const NodeId v : set_difference(old_gateways, new_gateways)) {
    MANET_ASSERT(selection_refs_[v] > 0, "gateway refcount underflow");
    if (--selection_refs_[v] == 0) cds_candidates.push_back(v);
  }
  for (const NodeId v : set_difference(new_gateways, old_gateways)) {
    if (selection_refs_[v]++ == 0) cds_candidates.push_back(v);
  }
}

void IncrementalBackbone::clear_head_rows(NodeId v, NodeSet& cds_candidates) {
  if (!selection_[v].gateways.empty() || !selection_[v].steps.empty() ||
      !selection_[v].leftover_pairs.empty()) {
    apply_selection_refs(selection_[v].gateways, {}, cds_candidates);
    selection_[v] = core::GatewaySelection{};
  }
  if (!coverage_[v].empty()) coverage_[v] = core::Coverage{};
}

IncrementalBackbone::HeadRow IncrementalBackbone::compute_head_row(
    const graph::DynamicAdjacency& g, NodeId h,
    core::CoverageScratch& scratch,
    core::SelectionScratch& sel_scratch) const {
  // Reads g, the frozen table rows and the clustering only — safe to run
  // for distinct heads concurrently with per-lane scratches.
  HeadRow row;
  row.cov = core::coverage_row(g, tables_, h, g.order(), scratch);
  row.sel = core::select_gateways_local(OverlayView(g, tables_, h), row.cov,
                                        sel_scratch);
  return row;
}

void IncrementalBackbone::commit_head_row(NodeId h, bool was_head,
                                          HeadRow&& row, TickStats& stats,
                                          NodeSet& cds_candidates) {
  if (!was_head || !(row.cov == coverage_[h])) ++stats.coverage_changes;
  coverage_[h] = std::move(row.cov);
  apply_selection_refs(selection_[h].gateways, row.sel.gateways,
                       cds_candidates);
  selection_[h] = std::move(row.sel);
  ++stats.heads_reselected;
}

TickStats IncrementalBackbone::apply(const graph::DynamicAdjacency& g,
                                     const EdgeDelta& delta) {
  return repair(g, delta, nullptr, nullptr);
}

TickStats IncrementalBackbone::apply_parallel(const graph::DynamicAdjacency& g,
                                              const EdgeDelta& delta,
                                              const RegionPartition& partition,
                                              WorkerPool& pool) {
  // Fan out only when there is something to share the work with.
  const bool fan_out = pool.lanes() > 1 && partition.count >= 2;
  TickStats stats = repair(g, delta, fan_out ? &partition : nullptr,
                           fan_out ? &pool : nullptr);
  stats.regions = partition.count;
  return stats;
}

TickStats IncrementalBackbone::repair(const graph::DynamicAdjacency& g,
                                      const EdgeDelta& delta,
                                      const RegionPartition* partition,
                                      WorkerPool* pool) {
  MANET_REQUIRE(g.order() == clustering_.head_of.size(),
                "adjacency does not match the maintained state");
  ++ticks_applied_;
  TickStats stats;
  stats.link_changes = delta.link_changes();
  obs_handles_.links_appeared.add(delta.added.size());
  obs_handles_.links_disappeared.add(delta.removed.size());
  obs_handles_.links_per_tick.record(delta.link_changes());
  if (delta.empty()) return stats;

  const std::size_t lanes = pool ? pool->lanes() : 1;
  if (lane_scratch_.size() < lanes) lane_scratch_.resize(lanes);
  if (lane_sel_scratch_.size() < lanes) lane_sel_scratch_.resize(lanes);
  if (spans_.size() < lanes + 1) spans_.resize(lanes + 1);
  Stages st{pool, obs_ ? &obs_->trace : nullptr, spans_};

  // --- Cluster rules. Inline, the whole delta is one region and the
  // rules run on the live head bitset. On the pool, one job per
  // independent region: each writes head_of inside its own region and
  // buffers its head-status flips in an overlay, so the per-region
  // ascending scans see exactly what the one global scan would show them
  // (S30: no other region's writes are within this region's read
  // radius). The merge — heads list, then roles against the final
  // head_of in sorted chunks — is the one every repair ends with.
  ClusterRepair rep;
  {
    auto span = st.span("cluster_repair", "flips");
    std::vector<ClusterRepair> parts(pool ? partition->count : 1);
    if (!pool) {
      parts[0] = repair_clustering_region(g, delta, clustering_, head_bits_);
    } else {
      std::vector<HeadStatusOverlay> overlays(parts.size(),
                                              HeadStatusOverlay(head_bits_));
      st.run("region_repair", parts.size(), [&](std::size_t r, std::size_t) {
        parts[r] = repair_clustering_region(g, partition->deltas[r],
                                            clustering_, overlays[r]);
        return partition->deltas[r].link_changes();
      });
      for (const HeadStatusOverlay& overlay : overlays)
        overlay.apply(head_bits_);
    }
    rep = merge_repairs(
        g, delta.touched, clustering_, parts,
        [&](std::span<const NodeId> support, NodeSet& changed) {
          changed = st.scan<NodeId>(
              "role_chunk", support.size(),
              [&](std::size_t begin, std::size_t end, NodeSet& out) {
                refresh_roles(g, clustering_,
                              support.subspan(begin, end - begin), out);
              });
        });
    span.set_arg(rep.declared.size() + rep.resigned.size());
  }
  stats.cluster_churn = rep.churn;
  stats.head_changes = rep.head_changed.size();
  stats.role_changes = rep.role_changed.size();
  obs_handles_.reaffiliations.add(rep.head_changed.size());
  obs_handles_.role_changes.add(rep.role_changed.size());
  obs_handles_.heads_declared.add(rep.declared.size());
  obs_handles_.heads_resigned.add(rep.resigned.size());

  // --- CH_HOP1(v) reads v's own head status, v's edges and its
  // neighbors' head status, so the exact dirty set is the changed-edge
  // endpoints plus the closed neighborhoods of the status flips. Rows
  // that come out identical are discarded and recorded as clean: they
  // prove their readers unchanged, which keeps each later stage small.
  // Chunk c writes rows of its own slice against frozen inputs.
  const NodeSet status_flips = set_union(rep.declared, rep.resigned);
  DirtySet hop1_mark(g.order());
  for (const NodeId v : delta.touched) hop1_mark.add(v);
  for (const NodeId v : status_flips) hop1_mark.add_closed_neighborhood(g, v);
  const NodeSet hop1_dirty = hop1_mark.take();

  NodeSet hop1_changed;
  {
    auto span = st.span("hop1_scan", "rows");
    span.set_arg(hop1_dirty.size());
    hop1_changed = st.scan<NodeId>(
        "hop1_chunk", hop1_dirty.size(),
        [&](std::size_t begin, std::size_t end, NodeSet& changed) {
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId v = hop1_dirty[i];
            auto row = core::hop1_row(g, clustering_, v);
            if (row != tables_.ch_hop1[v]) {
              tables_.ch_hop1[v] = std::move(row);
              changed.push_back(v);
            }
          }
        });
  }
  obs_handles_.hop1_rows_scanned.add(hop1_dirty.size());
  obs_handles_.hop1_rows_changed.add(hop1_changed.size());

  // --- CH_HOP2(v) additionally reads the neighbors' head_of assignments
  // and their (now final) CH_HOP1 rows: dirty set = changed-edge
  // endpoints ∪ closed neighborhoods of head_of changes and of actually
  // changed CH_HOP1 rows.
  DirtySet hop2_mark(g.order());
  for (const NodeId v : delta.touched) hop2_mark.add(v);
  for (const NodeId v : rep.head_changed)
    hop2_mark.add_closed_neighborhood(g, v);
  for (const NodeId v : hop1_changed) hop2_mark.add_closed_neighborhood(g, v);
  const NodeSet hop2_dirty = hop2_mark.take();

  NodeSet changed_rows;
  {
    auto span = st.span("hop2_scan", "rows");
    span.set_arg(hop2_dirty.size());
    changed_rows = st.scan<NodeId>(
        "hop2_chunk", hop2_dirty.size(),
        [&](std::size_t begin, std::size_t end, NodeSet& changed) {
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId v = hop2_dirty[i];
            auto row = core::hop2_row(g, clustering_, tables_.mode,
                                      tables_.ch_hop1, v);
            if (row != tables_.ch_hop2[v]) {
              tables_.ch_hop2[v] = std::move(row);
              changed.push_back(v);
            }
          }
        });
  }
  obs_handles_.hop2_rows_scanned.add(hop2_dirty.size());
  obs_handles_.hop2_rows_changed.add(changed_rows.size());
  changed_rows.insert(changed_rows.end(), hop1_changed.begin(),
                      hop1_changed.end());
  normalize(changed_rows);
  stats.rows_recomputed = hop1_dirty.size() + hop2_dirty.size();
  obs_handles_.rows_per_tick.record(stats.rows_recomputed);

  // --- Coverage + gateway reselection. A head's coverage and selection
  // read exactly its neighbor list and the table rows of its neighbors,
  // so a head needs a rerun only when it gained/lost an edge (touched),
  // just declared, or sits next to a row that actually changed;
  // everything else keeps its cached rows verbatim — bit-identical to the
  // full rebuild because the inputs are proven identical. The per-head
  // computation is pure over frozen tables, so one job per head; the
  // stateful commits (refcounts, coverage/selection moves) replay on the
  // caller in ascending head order.
  graph::NodeBitset head_dirty(g.order());
  NodeSet recompute;
  const auto mark = [&](NodeId v) {
    if (head_bits_.test(v) && head_dirty.set(v)) recompute.push_back(v);
  };
  for (const NodeId v : delta.touched) mark(v);
  for (const NodeId v : rep.declared) mark(v);
  for (const NodeId v : changed_rows) {
    mark(v);
    for (const NodeId w : g.neighbors(v)) mark(w);
  }
  normalize(recompute);

  NodeSet cds_candidates;
  for (const NodeId h : rep.declared) cds_candidates.push_back(h);
  for (const NodeId h : rep.resigned) cds_candidates.push_back(h);
  const graph::NodeBitset declared_bits =
      graph::NodeBitset::from_node_set(g.order(), rep.declared);
  {
    auto span = st.span("head_reselect", "heads");
    span.set_arg(recompute.size());
    std::vector<HeadRow> rows(recompute.size());
    st.run("head_row", recompute.size(), [&](std::size_t i, std::size_t lane) {
      rows[i] = compute_head_row(g, recompute[i], lane_scratch_[lane],
                                 lane_sel_scratch_[lane]);
      return recompute[i];
    });
    for (std::size_t i = 0; i < recompute.size(); ++i)
      commit_head_row(recompute[i],
                      /*was_head=*/!declared_bits.test(recompute[i]),
                      std::move(rows[i]), stats, cds_candidates);
    // Resignations leave stale head rows behind; release their reference
    // counts (guard against a same-tick re-declaration, which rule 2 makes
    // impossible today but cheap to stay safe against).
    for (const NodeId v : rep.resigned)
      if (!head_bits_.test(v)) clear_head_rows(v, cds_candidates);
  }
  obs_handles_.heads_reselected.add(recompute.size());
  obs_handles_.coverage_changes.add(stats.coverage_changes);

  // --- CDS settling for every node whose head status or selection
  // reference count moved this tick. Membership is a pure read of
  // head_bits_/selection_refs_/cds_bits_ (all frozen here), so chunks
  // over the sorted candidates buffer their flips and the caller applies
  // them in chunk order: one ascending flip sequence at any lane count.
  normalize(cds_candidates);
  {
    auto span = st.span("cds_settle", "candidates");
    span.set_arg(cds_candidates.size());
    const auto flips = st.scan<std::pair<NodeId, bool>>(
        "cds_chunk", cds_candidates.size(),
        [&](std::size_t begin, std::size_t end,
            std::vector<std::pair<NodeId, bool>>& out) {
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId v = cds_candidates[i];
            const bool member = head_bits_.test(v) || selection_refs_[v] > 0;
            if (member != cds_bits_.test(v)) out.emplace_back(v, member);
          }
        });
    for (const auto& [v, member] : flips) {
      if (member)
        cds_bits_.set(v);
      else
        cds_bits_.reset(v);
    }
    stats.backbone_changes = flips.size();
  }
  obs_handles_.backbone_flips.add(stats.backbone_changes);
  if (!defer_trace_) flush_trace();
  return stats;
}

NodeSet IncrementalBackbone::gateways() const {
  NodeSet out;
  cds_bits_.for_each([&](NodeId v) {
    if (!head_bits_.test(v)) out.push_back(v);
  });
  return out;
}

NodeSet IncrementalBackbone::cds() const { return cds_bits_.to_node_set(); }

core::StaticBackbone IncrementalBackbone::materialize() const {
  core::StaticBackbone b;
  b.mode = tables_.mode;
  b.clustering = clustering_;
  b.tables = tables_;
  b.coverage = coverage_;
  b.selection = selection_;
  b.gateways = gateways();
  b.cds = cds();
  return b;
}

std::string IncrementalBackbone::diff_against(
    const core::StaticBackbone& oracle) const {
  std::ostringstream err;
  if (!(clustering_ == oracle.clustering)) {
    err << "clustering mismatch vs full rebuild";
    return err.str();
  }
  if (tables_.mode != oracle.tables.mode ||
      tables_.ch_hop1 != oracle.tables.ch_hop1 ||
      tables_.ch_hop2 != oracle.tables.ch_hop2) {
    err << "neighbor-table mismatch vs full rebuild";
    return err.str();
  }
  for (NodeId v = 0; v < clustering_.head_of.size(); ++v) {
    if (!(coverage_[v] == oracle.coverage[v])) {
      err << "coverage mismatch at node " << v;
      return err.str();
    }
    if (!(selection_[v] == oracle.selection[v])) {
      err << "gateway-selection mismatch at head " << v;
      return err.str();
    }
  }
  if (gateways() != oracle.gateways) {
    err << "gateway-union mismatch vs full rebuild";
    return err.str();
  }
  if (cds() != oracle.cds) {
    err << "CDS mismatch vs full rebuild";
    return err.str();
  }
  return {};
}

}  // namespace manet::incr
