// Umbrella header — the complete public API of manetcast.
//
// Fine-grained includes are preferred in library code; this header exists
// for applications and exploratory use:
//
//   #include "manet.hpp"
//   using namespace manet;
#pragma once

// Foundations.
#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

// Topology model.
#include "geom/layout_io.hpp"
#include "geom/point.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

// The paper's contribution: clustering, coverage sets, backbones.
#include "cluster/lowest_id.hpp"
#include "core/cluster_graph.hpp"
#include "core/coverage.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/gateway_selection.hpp"
#include "core/mo_cds.hpp"
#include "core/neighbor_tables.hpp"
#include "core/static_backbone.hpp"

// Broadcast protocol zoo and channel models.
#include "broadcast/dominant_pruning.hpp"
#include "broadcast/flooding.hpp"
#include "broadcast/forwarding_tree.hpp"
#include "broadcast/lossy.hpp"
#include "broadcast/mpr.hpp"
#include "broadcast/passive_clustering.hpp"
#include "broadcast/si_cds.hpp"
#include "broadcast/stats.hpp"
#include "broadcast/suppression.hpp"

// Distributed protocol simulator and the §3 construction on it.
#include "net/message.hpp"
#include "net/simulator.hpp"
#include "proto/construction.hpp"

// CDS references and optimal baselines.
#include "mcds/bounds.hpp"
#include "mcds/exact.hpp"
#include "mcds/greedy.hpp"
#include "mcds/wu_li.hpp"

// Cluster maintenance.
#include "cluster/lcc.hpp"

// Mobility and maintenance.
#include "mobility/maintenance.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/waypoint.hpp"

// Incremental maintenance engine and the churn experiment driving it.
#include "exp/churn.hpp"
#include "incr/pipeline.hpp"

// Observability: deterministic metrics + flight-recorder tracing.
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

// Experiment harness (paper scenario + figure and ablation runners).
#include "exp/ablations.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "stats/replicator.hpp"
#include "stats/running.hpp"
#include "stats/samples.hpp"
#include "stats/student_t.hpp"
