// Google-benchmark microbenchmarks of the core kernels: clustering,
// neighbor tables, coverage, gateway selection, full static-backbone
// construction, one dynamic and one SI-CDS broadcast (also at 20k and
// 100k nodes), and the distributed protocol run.
// These put numbers on the "linear time" analysis of §4. Two engine
// measurements ride along: the batch unit-disk build on the dense vs the
// sparse SpatialGrid index, and depth-2 tick pipelining on the
// benchmark's churn-100k configuration (docs/PERFORMANCE.md records both).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "broadcast/si_cds.hpp"
#include "cluster/lowest_id.hpp"
#include "common/rng.hpp"
#include "core/dynamic_broadcast.hpp"
#include "core/mo_cds.hpp"
#include "core/static_backbone.hpp"
#include "exp/churn.hpp"
#include "geom/unit_disk.hpp"
#include "graph/algorithms.hpp"
#include "net/protocol.hpp"

namespace {

using namespace manet;

geom::UnitDiskNetwork benchmark_network(std::size_t n, double d) {
  Rng rng(derive_seed(4242, n, static_cast<std::uint64_t>(d)));
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  auto net = geom::generate_connected_unit_disk(cfg, rng);
  if (!net) throw std::runtime_error("no connected topology");
  return std::move(*net);
}

void BM_LowestIdClustering(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster::lowest_id_clustering(net.graph));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LowestIdClustering)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_NeighborTables(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  const auto c = cluster::lowest_id_clustering(net.graph);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_neighbor_tables(
        net.graph, c, core::CoverageMode::kTwoPointFiveHop));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NeighborTables)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_StaticBackbone(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_static_backbone(
        net.graph, core::CoverageMode::kTwoPointFiveHop));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StaticBackbone)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_MoCds(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::build_mo_cds(net.graph));
}
BENCHMARK(BM_MoCds)->Arg(128)->Arg(256);

// Broadcast topology for (n = arg 0, d = arg 1) and a source in its
// largest component. Up to 512 nodes the layout is connected; at 20k and
// 100k (d = 6) a connected layout is out of reach, so the broadcast
// covers the source's component — the same shape as benchmark cast-20k's
// probe, and large enough for a forward-set cost above O(F) to show.
std::pair<geom::UnitDiskNetwork, NodeId> broadcast_network(
    const benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<double>(state.range(1));
  if (n <= 512) return {benchmark_network(n, d), 0};
  Rng rng(derive_seed(4242, n, static_cast<std::uint64_t>(d)));
  geom::UnitDiskConfig cfg;
  cfg.nodes = n;
  cfg.range = geom::range_for_average_degree(d, n, cfg.width, cfg.height);
  auto net = geom::generate_unit_disk(cfg, rng);
  const auto [label, count] = graph::components(net.graph);
  std::vector<std::size_t> size(count, 0);
  for (std::uint32_t c : label) ++size[c];
  const auto largest = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  const auto source = static_cast<NodeId>(
      std::find(label.begin(), label.end(), largest) - label.begin());
  return {std::move(net), source};
}

void BM_DynamicBroadcast(benchmark::State& state) {
  const auto [net, source] = broadcast_network(state);
  const auto bb = core::build_dynamic_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::dynamic_broadcast(net.graph, bb, source));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicBroadcast)->RangeMultiplier(2)
    ->Ranges({{32, 512}, {12, 12}})->Complexity();
BENCHMARK(BM_DynamicBroadcast)->Args({20000, 6})->Args({100000, 6})
    ->Unit(benchmark::kMillisecond);

void BM_SiCdsBroadcast(benchmark::State& state) {
  const auto [net, source] = broadcast_network(state);
  const auto st = core::build_static_backbone(
      net.graph, core::CoverageMode::kTwoPointFiveHop);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        broadcast::si_cds_broadcast(net.graph, st.cds, source));
}
BENCHMARK(BM_SiCdsBroadcast)->Args({128, 12})->Args({512, 12});
BENCHMARK(BM_SiCdsBroadcast)->Args({20000, 6})->Args({100000, 6})
    ->Unit(benchmark::kMillisecond);

void BM_DistributedProtocol(benchmark::State& state) {
  const auto net = benchmark_network(
      static_cast<std::size_t>(state.range(0)), 12.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::run_distributed_backbone(
        net.graph, core::CoverageMode::kTwoPointFiveHop));
}
BENCHMARK(BM_DistributedProtocol)->Arg(64)->Arg(128)->Arg(256);

// Batch unit-disk build (d = 6) over one uniform layout, on the dense
// lattice (arg 1 = 0) or the sparse occupied-cell index (arg 1 = 1).
void BM_UnitDiskGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const geom::GridIndex index =
      state.range(1) != 0 ? geom::GridIndex::kSparse : geom::GridIndex::kDense;
  Rng rng(derive_seed(4242, n, 6));
  std::vector<geom::Point> positions(n);
  for (geom::Point& p : positions)
    p = {rng.uniform(0, 100), rng.uniform(0, 100)};
  const double range = geom::range_for_average_degree(6.0, n, 100, 100);
  for (auto _ : state)
    benchmark::DoNotOptimize(geom::unit_disk_graph(positions, range, index));
}
BENCHMARK(BM_UnitDiskGrid)
    ->ArgsProduct({{1000, 10000, 100000, 200000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Tick pipelining on the churn-100k configuration (100k nodes, 1,000
// movers per tick, d = 6, waypoint, 2.5-hop, sparse grid, streaming build
// and placement, cell-major labels) at 4 lanes: five pairs of 60-tick
// runs, depth 1 then depth 2 from the same seed. The counters are each
// depth's median wall ms per tick and their ratio.
void BM_PipelineDepth(benchmark::State& state) {
  exp::ChurnConfig c;
  c.nodes = 100000;
  c.degree = 6.0;
  c.move_fraction = 0.01;
  c.ticks = 60;
  c.connect_attempts = 1;
  c.grid = geom::GridIndex::kSparse;
  c.streaming_build = true;
  c.cell_order = true;
  c.streaming_placement = true;
  c.rebuild_baseline = false;
  c.threads = 4;
  for (auto _ : state) {
    std::vector<double> ms[2];
    for (std::uint64_t pair = 1; pair <= 5; ++pair) {
      c.seed = pair;
      for (std::size_t depth = 1; depth <= 2; ++depth) {
        c.pipeline_depth = depth;
        ms[depth - 1].push_back(exp::run_churn(c).wall_ms_per_tick);
      }
    }
    for (auto& v : ms) std::sort(v.begin(), v.end());
    state.counters["depth1_ms"] = ms[0][2];
    state.counters["depth2_ms"] = ms[1][2];
    state.counters["speedup"] = ms[0][2] / ms[1][2];
  }
}
BENCHMARK(BM_PipelineDepth)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

BENCHMARK_MAIN();
