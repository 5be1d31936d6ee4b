#include "broadcast/stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"

namespace manet::broadcast {
namespace {

/// Per-protocol counters in the process-wide registry, resolved once per
/// protocol name and cached (registration takes a lock; recording does
/// not).
struct ProtoCounters {
  obs::Counter runs;
  obs::Counter transmissions;
  obs::Counter forward_nodes;
  obs::Counter delivered_all;
};

ProtoCounters& proto_counters(std::string_view protocol) {
  static std::mutex mu;
  static std::map<std::string, ProtoCounters, std::less<>> cache;
  std::scoped_lock lock(mu);
  auto it = cache.find(protocol);
  if (it == cache.end()) {
    auto& r = obs::global_registry();
    const std::string prefix = "broadcast." + std::string(protocol);
    ProtoCounters handles{r.counter(prefix + ".runs"),
                          r.counter(prefix + ".transmissions"),
                          r.counter(prefix + ".forward_nodes"),
                          r.counter(prefix + ".delivered_all")};
    it = cache.emplace(std::string(protocol), handles).first;
  }
  return it->second;
}

}  // namespace

double BroadcastStats::delivery_ratio() const {
  if (received.empty()) return 1.0;
  const auto got = static_cast<double>(
      std::count(received.begin(), received.end(), char{1}));
  return got / static_cast<double>(received.size());
}

std::uint32_t BroadcastStats::latency_hops() const {
  std::uint32_t worst = 0;
  for (std::uint32_t h : first_copy_hops)
    if (h != kUnreachableHops) worst = std::max(worst, h);
  return worst;
}

void finalize(BroadcastStats& stats) {
  normalize(stats.forward_nodes);
  stats.delivered_all =
      std::all_of(stats.received.begin(), stats.received.end(),
                  [](char c) { return c != 0; });
}

void finalize(BroadcastStats& stats, std::string_view protocol) {
  finalize(stats);
  record_run(protocol, stats);
}

void record_run(std::string_view protocol, const BroadcastStats& stats) {
  if (!obs::kEnabled) return;
  auto& r = obs::global_registry();
  // Histograms shared across protocols: distribution of forward-set
  // sizes, delivery ratio in permille (integral, so snapshots stay
  // bitwise deterministic), and broadcast latency in relay hops.
  static obs::Histogram forward_hist = r.histogram(
      "broadcast.forward_set_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                     1024});
  static obs::Histogram delivery_hist = r.histogram(
      "broadcast.delivery_permille", {1, 500, 900, 990, 1000, 1001});
  static obs::Histogram latency_hist =
      r.histogram("broadcast.latency_hops", {1, 2, 4, 8, 16, 32, 64});

  ProtoCounters& c = proto_counters(protocol);
  c.runs.add();
  c.transmissions.add(stats.transmissions);
  c.forward_nodes.add(stats.forward_count());
  if (stats.delivered_all) c.delivered_all.add();

  forward_hist.record(stats.forward_count());
  delivery_hist.record(static_cast<std::uint64_t>(
      std::llround(stats.delivery_ratio() * 1000.0)));
  latency_hist.record(stats.latency_hops());
}

}  // namespace manet::broadcast
