#include "net/simulator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "obs/session.hpp"

namespace manet::net {
namespace {

/// Rounds of in-flight history kept for the livelock report.
constexpr std::size_t kLivelockWindow = 8;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// MessageCounts in MessageBody variant order (the order the `net.msg.*`
/// counter handles are registered in) — the flush path diffs two of
/// these to advance the registry by exactly the sends since last flush.
std::array<std::uint64_t, std::variant_size_v<MessageBody>> counts_by_type(
    const MessageCounts& c) {
  return {c.hello,   c.cluster_head, c.non_cluster_head, c.ch_hop1,
          c.ch_hop2, c.gateway,      c.data,             c.maint_hello,
          c.r1_status, c.r2_status};
}

/// Fixed-graph adapter: delivery reads the snapshot's adjacency.
class GraphTopology final : public Topology {
 public:
  explicit GraphTopology(const graph::Graph& g) : g_(g) {}
  std::size_t order() const override { return g_.order(); }
  std::span<const NodeId> neighbors(NodeId v) const override {
    return g_.neighbors(v);
  }

 private:
  const graph::Graph& g_;
};

}  // namespace

void MessageCounts::count(const MessageBody& body) {
  struct Visitor {
    MessageCounts& c;
    void operator()(const HelloMsg&) { ++c.hello; }
    void operator()(const ClusterHeadMsg&) { ++c.cluster_head; }
    void operator()(const NonClusterHeadMsg&) { ++c.non_cluster_head; }
    void operator()(const ChHop1Msg&) { ++c.ch_hop1; }
    void operator()(const ChHop2Msg&) { ++c.ch_hop2; }
    void operator()(const GatewayMsg&) { ++c.gateway; }
    void operator()(const DataMsg&) { ++c.data; }
    void operator()(const MaintHelloMsg&) { ++c.maint_hello; }
    void operator()(const R1StatusMsg&) { ++c.r1_status; }
    void operator()(const R2StatusMsg&) { ++c.r2_status; }
  };
  std::visit(Visitor{*this}, body);
}

/// Collects one sender's transmissions into a target flight buffer,
/// counting each at send time. Rounds send into next_flight_; start(),
/// on_timer() and inject() send into in_flight_ (delivered in the first
/// round of the next run()).
class Simulator::RoundMailbox final : public Mailbox {
 public:
  RoundMailbox(Simulator& sim, std::vector<Message>& target, NodeId from)
      : sim_(sim), target_(target), from_(from) {}
  void send(MessageBody body) override {
    send_caused(std::move(body), Cause{});
  }
  void send_caused(MessageBody body, Cause cause) override {
    Message m{std::move(body)};
    m.from = from_;
    m.parent_id = cause.id;
    m.depth = cause.id != 0 ? cause.depth + 1 : 0;
    sim_.record_send(m);  // stamps the trace id
    target_.push_back(std::move(m));
  }
  void retarget(NodeId from) { from_ = from; }

 private:
  Simulator& sim_;
  std::vector<Message>& target_;
  NodeId from_;
};

Simulator::Simulator(const graph::Graph& g, const Factory& factory)
    : owned_topo_(std::make_unique<GraphTopology>(g)),
      dispatch_(Dispatch::kEveryNode) {
  topo_ = owned_topo_.get();
  create_nodes(factory);
}

Simulator::Simulator(const Topology& topo, const Factory& factory)
    : topo_(&topo), dispatch_(Dispatch::kEventDriven) {
  create_nodes(factory);
}

void Simulator::create_nodes(const Factory& factory) {
  MANET_REQUIRE(factory != nullptr, "node factory required");
  const std::size_t n = topo_->order();
  nodes_.reserve(n);
  for (NodeId v = 0; v < n; ++v) nodes_.push_back(factory(v));
  inbox_count_.assign(n, 0);
  inbox_begin_.assign(n, 0);
  inbox_cursor_.assign(n, 0);
  seen_stamp_.assign(n, 0);
}

NodeProcess& Simulator::process(NodeId v) {
  MANET_REQUIRE(v < nodes_.size(), "node id out of range");
  return *nodes_[v];
}

const NodeProcess& Simulator::process(NodeId v) const {
  MANET_REQUIRE(v < nodes_.size(), "node id out of range");
  return *nodes_[v];
}

void Simulator::set_obs(obs::Session* session) {
  // Pending local accumulation belongs to the session that observed the
  // sends — flush through the old handles before they are replaced.
  if (obs_ != nullptr) flush_obs();
  obs_ = session;
  reset_wave_depth_counts();
  for (auto& c : msg_counters_) c = obs::Counter();
  rounds_counter_ = obs::Counter();
  quiescence_gauge_ = obs::Gauge();
  inbox_hist_ = obs::Histogram();
  in_flight_hist_ = obs::Histogram();
  if (!session) return;
  auto& r = session->registry;
  static constexpr const char* kCounterNames[] = {
      "net.msg.hello",       "net.msg.cluster_head",
      "net.msg.non_cluster_head", "net.msg.ch_hop1",
      "net.msg.ch_hop2",     "net.msg.gateway",
      "net.msg.data",        "net.msg.maint_hello",
      "net.msg.r1_status",   "net.msg.r2_status"};
  static_assert(std::variant_size_v<MessageBody> ==
                sizeof(kCounterNames) / sizeof(kCounterNames[0]));
  for (std::size_t i = 0; i < std::variant_size_v<MessageBody>; ++i)
    msg_counters_[i] = r.counter(kCounterNames[i]);
  rounds_counter_ = r.counter("net.rounds");
  quiescence_gauge_ = r.gauge("net.quiescence_round");
  inbox_hist_ = r.histogram("net.inbox_size", {1, 2, 4, 8, 16, 32, 64, 128});
  in_flight_hist_ =
      r.histogram("net.in_flight", {1, 4, 16, 64, 256, 1024, 4096});
  // Only sends made while attached count toward the session's registry.
  last_flushed_counts_ = counts_;
}

void Simulator::flush_obs() {
  const auto now = counts_by_type(counts_);
  const auto then = counts_by_type(last_flushed_counts_);
  for (std::size_t i = 0; i < now.size(); ++i)
    if (now[i] != then[i]) msg_counters_[i].add(now[i] - then[i]);
  last_flushed_counts_ = counts_;
  for (std::size_t s = 0; s < inbox_size_counts_.size(); ++s)
    if (inbox_size_counts_[s] != 0) {
      inbox_hist_.record_many(s, inbox_size_counts_[s]);
      inbox_size_counts_[s] = 0;
    }
}

namespace {

/// Journal payload summary (a, b) per message type — the fields the
/// forensic causal slice needs to name what a message carried.
struct JournalSummaryVisitor {
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const MaintHelloMsg& m) const {
    return {m.head, m.is_head ? 1u : 0u};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const R1StatusMsg& m) const {
    return {m.final_ ? 1u : 0u, m.survived ? 1u : 0u};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const R2StatusMsg& m) const {
    return {m.head, (m.final_ ? 1u : 0u) | (m.declared ? 2u : 0u)};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const GatewayMsg& m) const {
    return {m.origin, m.seq};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const ChHop1Msg& m) const {
    return {m.heads.size(), 0};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const ChHop2Msg& m) const {
    return {m.entries.size(), 0};
  }
  std::pair<std::uint64_t, std::uint64_t> operator()(
      const NonClusterHeadMsg& m) const {
    return {m.head, 0};
  }
  template <typename T>
  std::pair<std::uint64_t, std::uint64_t> operator()(const T&) const {
    return {0, 0};
  }
};

std::pair<std::uint64_t, std::uint64_t> journal_summary(
    const MessageBody& body) {
  return std::visit(JournalSummaryVisitor{}, body);
}

}  // namespace

void Simulator::record_send(Message& m) {
  m.trace_id = ++trace_seq_;
  counts_.count(m.body);
  if (observer_) observer_(round_, m);
  if (obs_) {
    // Observed hot path = one journal ring write plus two plain-array
    // increments. The registry counters advance from counts_ deltas in
    // flush_obs(), and the renderable per-send trace events (instant +
    // causal flow arrows) are synthesized from the journal at export
    // time (TraceRecorder::write_chrome_trace with a journal).
    if (m.parent_id != 0) {
      if (m.depth >= depth_counts_.size())
        depth_counts_.resize(m.depth + 1, 0);
      ++depth_counts_[m.depth];
    }
    const auto [a, b] = journal_summary(m.body);
    obs_->journal.record(round_, m.from, message_type_name(m.body),
                         m.trace_id, m.parent_id, m.depth, a, b);
  }
}

void Simulator::inject(NodeId from, MessageBody body) {
  MANET_REQUIRE(from < topo_->order(), "inject source out of range");
  Message m{std::move(body)};
  m.from = from;
  record_send(m);
  in_flight_.push_back(std::move(m));
}

void Simulator::poll_awake() {
  awake_.clear();
  if (dispatch_ != Dispatch::kEventDriven) return;
  for (NodeId v = 0; v < nodes_.size(); ++v)
    if (nodes_[v]->awake()) awake_.push_back(v);
}

void Simulator::trigger_timers() {
  if (!started_) {
    started_ = true;
    RoundMailbox mb(*this, in_flight_, 0);
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      mb.retarget(v);
      nodes_[v]->start(mb);
    }
  }
  const std::uint64_t t0 = now_ns();
  RoundMailbox mb(*this, in_flight_, 0);
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    mb.retarget(v);
    nodes_[v]->on_timer(round_, mb);
  }
  step_ns_ += now_ns() - t0;
  poll_awake();
}

std::uint32_t Simulator::run(std::uint32_t max_rounds) {
  const std::size_t n = topo_->order();

  if (!started_) {
    // start(): nodes queue their round-0 transmissions (HELLO).
    started_ = true;
    RoundMailbox mb(*this, in_flight_, 0);
    for (NodeId v = 0; v < n; ++v) {
      mb.retarget(v);
      nodes_[v]->start(mb);
    }
    poll_awake();
  }

  std::uint32_t executed = 0;
  std::vector<NodeId> dispatch_set;
  while (true) {
    if (dispatch_ == Dispatch::kEventDriven && in_flight_.empty() &&
        awake_.empty())
      break;  // quiescent before the round even starts

    // Deliver last round's transmissions to every current neighbor of
    // the sender. Only inboxes that received something last round are
    // non-empty, so clearing is O(receivers), not O(n).
    const std::uint64_t deliver_t0 = now_ns();
    for (const NodeId w : touched_) {
      inbox_count_[w] = 0;
      ++delivery_.inbox_resets;
    }
    touched_.clear();
    // Counting-sort delivery into the round arena: count per receiver,
    // prefix-place the receivers, then write the pointers in message
    // order (identical inbox order to the old per-node vectors).
    for (const auto& m : in_flight_) {
      for (const NodeId w : topo_->neighbors(m.from)) {
        if (inbox_count_[w]++ == 0) touched_.push_back(w);
        ++delivery_.deliveries;
      }
    }
    std::uint32_t arena_total = 0;
    for (const NodeId w : touched_) {
      inbox_begin_[w] = arena_total;
      inbox_cursor_[w] = arena_total;
      arena_total += inbox_count_[w];
    }
    if (arena_.size() < arena_total) arena_.resize(arena_total);
    for (const auto& m : in_flight_)
      for (const NodeId w : topo_->neighbors(m.from))
        arena_[inbox_cursor_[w]++] = &m;
    deliver_ns_ += now_ns() - deliver_t0;
    const bool had_traffic = !in_flight_.empty();
    if (obs_) {
      // Exact-size occurrence counts in a plain array (touched inboxes
      // are never empty, so index 0 stays unused); flush_obs() folds
      // them into the net.inbox_size histogram after the run.
      for (const NodeId w : touched_) {
        const std::size_t sz = inbox_count_[w];
        if (sz >= inbox_size_counts_.size())
          inbox_size_counts_.resize(sz + 1, 0);
        ++inbox_size_counts_[sz];
      }
    }

    // Let the dispatched nodes react (sends land in next_flight_, so
    // inbox pointers into in_flight_ stay valid all round).
    ++round_;
    ++executed;
    const std::uint64_t step_t0 = now_ns();
    RoundMailbox mb(*this, next_flight_, 0);
    if (dispatch_ == Dispatch::kEveryNode) {
      for (NodeId v = 0; v < n; ++v) {
        mb.retarget(v);
        nodes_[v]->on_round(round_, inbox_of(v, arena_), mb);
        ++delivery_.dispatches;
      }
    } else {
      // Invocation set = receivers + self-awake nodes, in id order (the
      // order is immaterial to semantics — sends deliver next round —
      // but determinism keeps runs reproducible).
      dispatch_set.clear();
      ++dispatch_epoch_;
      for (const NodeId v : touched_) {
        if (seen_stamp_[v] != dispatch_epoch_) {
          seen_stamp_[v] = dispatch_epoch_;
          dispatch_set.push_back(v);
        }
      }
      for (const NodeId v : awake_) {
        if (seen_stamp_[v] != dispatch_epoch_) {
          seen_stamp_[v] = dispatch_epoch_;
          dispatch_set.push_back(v);
        }
      }
      std::sort(dispatch_set.begin(), dispatch_set.end());
      for (const NodeId v : dispatch_set) {
        mb.retarget(v);
        nodes_[v]->on_round(round_, inbox_of(v, arena_), mb);
        ++delivery_.dispatches;
      }
      // Every previously awake node was just dispatched, and awake() only
      // changes during a dispatch — so re-polling the dispatched set
      // alone keeps awake_ exact.
      awake_.clear();
      for (const NodeId v : dispatch_set)
        if (nodes_[v]->awake()) awake_.push_back(v);
    }
    step_ns_ += now_ns() - step_t0;

    in_flight_.clear();
    std::swap(in_flight_, next_flight_);

    if (obs_) in_flight_hist_.record(in_flight_.size());
    if (recent_in_flight_.size() >= kLivelockWindow)
      recent_in_flight_.erase(recent_in_flight_.begin());
    recent_in_flight_.emplace_back(round_, in_flight_.size());

    if (dispatch_ == Dispatch::kEveryNode && in_flight_.empty() &&
        !had_traffic)
      break;  // a full round with no traffic in or out
    if (executed >= max_rounds) {
      // Livelock guard: report how much traffic was still circulating in
      // the final rounds — "the round limit elapsed" alone says nothing
      // about whether the protocol was converging or ringing.
      std::ostringstream os;
      os << "simulator exceeded max_rounds=" << max_rounds
         << " (livelock?); in-flight messages over the final rounds:";
      for (const auto& [r, cnt] : recent_in_flight_)
        os << " round " << r << "=" << cnt;
      throw std::runtime_error(os.str());
    }
  }
  rounds_counter_.add(executed);
  quiescence_gauge_.set(round_);
  if (obs_) flush_obs();
  return executed;
}

// ---- Region-sharded maintenance ticks ------------------------------------

/// Collects one chunk's transmissions. A timer sends exactly its beacon,
/// written straight into the node's slot of the region's flight with the
/// id the sequential trigger_timers would have handed out (base + sender
/// + 1 — every node beacons in id order there). Round-phase sends go to
/// the chunk's buffer unstamped; the phase merge hands out region-
/// interleaved ids above the beacon block in merged order (base + n +
/// k*R + r + 1 for the region's k-th send), so ids stay unique and
/// deterministic no matter how many threads execute the regions and
/// their chunks. Counting and journaling land in the chunk, never in
/// shared simulator state.
class Simulator::ChunkMailbox final : public Mailbox {
 public:
  ChunkMailbox(const Simulator& sim, RegionChunk& out, bool observed,
               bool timer, std::uint32_t journal_round)
      : sim_(sim),
        out_(out),
        observed_(observed),
        timer_(timer),
        journal_round_(journal_round) {}

  /// Opens `from`'s dispatch; `beacon` is its flight slot in the timer
  /// phase, nullptr in rounds.
  void begin(NodeId from, Message* beacon) {
    from_ = from;
    beacon_ = beacon;
  }
  void end_timer() const {
    MANET_ASSERT(beacon_ == nullptr,
                 "maintenance timer must send exactly the beacon");
  }

  void send(MessageBody body) override {
    send_caused(std::move(body), Cause{});
  }
  void send_caused(MessageBody body, Cause cause) override {
    Message m{std::move(body)};
    m.from = from_;
    m.parent_id = cause.id;
    m.depth = cause.id != 0 ? cause.depth + 1 : 0;
    if (timer_) {
      MANET_ASSERT(beacon_ != nullptr,
                   "maintenance timer must send exactly the beacon");
      m.trace_id = sim_.sharded_base_ + from_ + 1;
    }
    out_.counts.count(m.body);
    if (observed_) {
      if (m.parent_id != 0) {
        if (m.depth >= out_.depth_counts.size())
          out_.depth_counts.resize(m.depth + 1, 0);
        ++out_.depth_counts[m.depth];
      }
      const auto [a, b] = journal_summary(m.body);
      out_.journal.push_back({0, journal_round_, m.from,
                              message_type_name(m.body), m.trace_id,
                              m.parent_id, m.depth, a, b});
    }
    if (timer_) {
      *beacon_ = std::move(m);
      beacon_ = nullptr;
    } else {
      out_.sends.push_back(std::move(m));
    }
  }

 private:
  const Simulator& sim_;
  RegionChunk& out_;
  bool observed_;
  bool timer_;
  std::uint32_t journal_round_;
  NodeId from_ = 0;
  Message* beacon_ = nullptr;
};

template <typename Step>
std::size_t Simulator::run_phase(RegionRun& rr, std::span<const NodeId> nodes,
                                 const RegionHooks& hooks, Message* beacons,
                                 std::uint32_t journal_round,
                                 const Step& step) {
  const std::size_t count =
      (nodes.size() + kRegionChunkNodes - 1) / kRegionChunkNodes;
  if (rr.chunks.size() < count) rr.chunks.resize(count);
  const bool observed = obs_ != nullptr;
  const ChunkJob job = [&](std::size_t c, std::size_t lane) {
    RegionChunk& out = rr.chunks[c];
    out.sends.clear();
    out.counts = MessageCounts{};
    out.depth_counts.clear();
    out.awake.clear();
    out.journal.clear();
    const std::uint64_t t0 = now_ns();
    ChunkMailbox mb(*this, out, observed, beacons != nullptr, journal_round);
    const std::size_t lo = c * kRegionChunkNodes;
    const std::size_t hi = std::min(lo + kRegionChunkNodes, nodes.size());
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = nodes[i];
      if (hooks.bind) hooks.bind(v, c, lane);
      mb.begin(v, beacons != nullptr ? beacons + i : nullptr);
      step(v, mb);
    }
    for (std::size_t i = lo; i < hi; ++i)
      if (nodes_[nodes[i]]->awake()) out.awake.push_back(nodes[i]);
    out.step_ns = now_ns() - t0;
  };
  if (hooks.run_chunks) {
    hooks.run_chunks(count, job);
  } else {
    for (std::size_t c = 0; c < count; ++c) job(c, 0);
  }
  return count;
}

std::uint64_t Simulator::begin_sharded_tick() {
  MANET_REQUIRE(dispatch_ == Dispatch::kEventDriven,
                "sharded ticks need event-driven dispatch");
  MANET_REQUIRE(observer_ == nullptr,
                "per-send observers are unsupported in sharded mode");
  MANET_REQUIRE(in_flight_.empty() && next_flight_.empty(),
                "sharded tick opened with legacy traffic in flight");
  started_ = true;
  // The previous tick's regional final touched: the sequential engine
  // would clear (and count) these in its next round 1; the count is
  // carried in pending_inbox_resets_, the clear happens here.
  for (const NodeId w : sharded_dirty_) inbox_count_[w] = 0;
  sharded_dirty_.clear();
  sharded_base_ = trace_seq_;
  sharded_n_ = topo_->order();
  return sharded_base_;
}

void Simulator::run_region(RegionRun& rr, const std::uint32_t* scope_tag,
                           const RegionHooks& hooks,
                           std::uint32_t max_rounds) {
  rr.rounds = 0;
  rr.sends = 0;
  rr.counts = MessageCounts{};
  rr.delivery = DeliveryStats{};
  rr.round1_deliveries = 0;
  rr.cross_scope_late = 0;
  rr.chunked_phases = 0;
  rr.deliver_ns = 0;
  rr.step_ns = 0;
  rr.queued.clear();
  rr.touched_by_round.clear();
  rr.final_touched.clear();
  rr.inbox_size_counts.clear();
  rr.depth_counts.clear();
  rr.journal.clear();
  rr.flight.clear();
  rr.next_flight.clear();
  rr.touched.clear();
  rr.awake.clear();

  const bool observed = obs_ != nullptr;
  const std::uint32_t tag = rr.region + 1;

  // Folds a finished phase's chunks into rr in chunk order. Round-phase
  // sends get their trace ids here and queue for the next round.
  const auto merge_phase = [&](std::size_t count) {
    if (count > 1) ++rr.chunked_phases;
    for (std::size_t c = 0; c < count; ++c) {
      RegionChunk& ch = rr.chunks[c];
      for (std::size_t i = 0; i < ch.sends.size(); ++i) {
        Message& m = ch.sends[i];
        m.trace_id = sharded_base_ + sharded_n_ +
                     static_cast<std::uint64_t>(rr.sends) * rr.region_count +
                     rr.region + 1;
        ++rr.sends;
        if (observed) ch.journal[i].trace_id = m.trace_id;
        rr.next_flight.push_back(std::move(m));
      }
      rr.counts += ch.counts;
      if (ch.depth_counts.size() > rr.depth_counts.size())
        rr.depth_counts.resize(ch.depth_counts.size(), 0);
      for (std::size_t d = 0; d < ch.depth_counts.size(); ++d)
        rr.depth_counts[d] += ch.depth_counts[d];
      rr.journal.insert(rr.journal.end(), ch.journal.begin(),
                        ch.journal.end());
      rr.awake.insert(rr.awake.end(), ch.awake.begin(), ch.awake.end());
      rr.step_ns += ch.step_ns;
    }
    if (hooks.end_phase) hooks.end_phase(count);
  };

  // Timer phase: every scope node beacons into its own flight slot
  // (trace id base+v+1, exactly the sequential assignment); after_timer
  // synthesizes the heard marks of out-of-scope neighbors.
  rr.flight.resize(rr.scope.size());
  merge_phase(run_phase(rr, rr.scope, hooks, rr.flight.data(), round_,
                        [&](NodeId v, ChunkMailbox& mb) {
                          nodes_[v]->on_timer(round_, mb);
                          mb.end_timer();
                          if (hooks.after_timer) hooks.after_timer(v);
                        }));

  while (true) {
    if (rr.flight.empty() && rr.awake.empty()) break;
    const std::uint32_t j = rr.rounds + 1;

    // Clear the previous local round's inboxes. Resets are not counted
    // here: the merge reproduces the sequential engine's reset count
    // analytically (whole rounds of it never happen locally).
    const std::uint64_t deliver_t0 = now_ns();
    for (const NodeId w : rr.touched) inbox_count_[w] = 0;
    rr.touched.clear();
    // Counting-sort delivery, like run() but scope-filtered and into the
    // region's private arena. The shared count/begin/cursor arrays are
    // only written at in-scope indices, so concurrent regions (disjoint
    // scopes) never touch the same entries.
    for (const auto& m : rr.flight) {
      for (const NodeId w : topo_->neighbors(m.from)) {
        if (scope_tag[w] != tag) {
          // Round 1: a boundary beacon heard outside the region —
          // expected, bulk-accounted (2E covers every beacon delivery).
          // Later rounds: a repair wave escaping its painted region
          // would break independence; count it for the property test.
          if (j >= 2) ++rr.cross_scope_late;
          continue;
        }
        if (inbox_count_[w]++ == 0) rr.touched.push_back(w);
        ++rr.delivery.deliveries;
        if (j == 1) ++rr.round1_deliveries;
      }
    }
    std::uint32_t arena_total = 0;
    for (const NodeId w : rr.touched) {
      inbox_begin_[w] = arena_total;
      inbox_cursor_[w] = arena_total;
      arena_total += inbox_count_[w];
    }
    if (rr.arena.size() < arena_total) rr.arena.resize(arena_total);
    for (const auto& m : rr.flight)
      for (const NodeId w : topo_->neighbors(m.from))
        if (scope_tag[w] == tag) rr.arena[inbox_cursor_[w]++] = &m;
    rr.deliver_ns += now_ns() - deliver_t0;
    rr.touched_by_round.push_back(
        static_cast<std::uint32_t>(rr.touched.size()));
    if (observed && j >= 2) {
      for (const NodeId w : rr.touched) {
        const std::size_t sz = inbox_count_[w];
        if (sz >= rr.inbox_size_counts.size())
          rr.inbox_size_counts.resize(sz + 1, 0);
        ++rr.inbox_size_counts[sz];
      }
    }

    // Dispatch = receivers + self-awake nodes, in id order (matching
    // the sequential dispatch set restricted to the scope). Awake nodes
    // with a non-empty inbox are already in touched.
    rr.dispatch.clear();
    rr.dispatch.insert(rr.dispatch.end(), rr.touched.begin(),
                       rr.touched.end());
    for (const NodeId v : rr.awake)
      if (inbox_count_[v] == 0) rr.dispatch.push_back(v);
    std::sort(rr.dispatch.begin(), rr.dispatch.end());
    ++rr.rounds;
    rr.awake.clear();
    merge_phase(run_phase(rr, rr.dispatch, hooks, nullptr, round_ + j,
                          [&](NodeId v, ChunkMailbox& mb) {
                            nodes_[v]->on_round(round_ + j,
                                                inbox_of(v, rr.arena), mb);
                          }));
    rr.delivery.dispatches += rr.dispatch.size();

    rr.flight.clear();
    std::swap(rr.flight, rr.next_flight);
    rr.queued.push_back(rr.flight.size());

    if (rr.rounds >= max_rounds)
      throw std::runtime_error(
          "region run exceeded max_rounds (livelock?)");
  }
  rr.final_touched = rr.touched;
}

std::uint32_t Simulator::finish_sharded_tick(std::span<RegionRun> regions,
                                             const ShardedMergeInputs& bulk) {
  std::uint32_t rounds = 1;
  for (const RegionRun& rr : regions) rounds = std::max(rounds, rr.rounds);

  // Sends: the regions' own counts plus one beacon per out-of-scope
  // node (the sequential tick beacons all n; quiescent nodes' beacons
  // cause nothing, so skipping them changes no other counter).
  std::size_t round1_in_scope = 0;
  std::uint32_t max_sends = 0;
  for (const RegionRun& rr : regions) {
    counts_ += rr.counts;
    delivery_.deliveries += rr.delivery.deliveries;
    delivery_.dispatches += rr.delivery.dispatches;
    round1_in_scope += rr.round1_deliveries;
    cross_scope_late_ += rr.cross_scope_late;
    chunked_phases_ += rr.chunked_phases;
    deliver_ns_ += rr.deliver_ns;
    step_ns_ += rr.step_ns;
    max_sends = std::max(max_sends, rr.sends);
  }
  counts_.maint_hello += bulk.n_total - bulk.scope_total;
  // Round 1 delivers every beacon to every neighbor: 2E deliveries in
  // the sequential tick, of which the regions performed their in-scope
  // share physically.
  delivery_.deliveries += bulk.edges2 - round1_in_scope;
  // Round 1 dispatches every node with a non-empty inbox (degree > 0)
  // or awake after its timer (non-empty cache — for out-of-scope nodes
  // the two coincide: their links did not change). In-scope round-1
  // dispatches are already in the regions' counts.
  delivery_.dispatches += bulk.degpos_total - bulk.degpos_in_scope;

  // Inbox resets, exactly as the sequential engine counts them: round 1
  // clears the previous tick's final touched (V_{T-1}); round 2 — if it
  // happens anywhere — clears all degpos beacon inboxes; later rounds
  // clear the previous round's receivers. The final round's receivers
  // are never cleared this tick: they carry to the next (V_T).
  delivery_.inbox_resets += pending_inbox_resets_;
  if (rounds >= 2) {
    delivery_.inbox_resets += bulk.degpos_total;
    for (std::uint32_t j = 2; j + 1 <= rounds; ++j)
      for (const RegionRun& rr : regions)
        if (j <= rr.rounds) delivery_.inbox_resets += rr.touched_by_round[j - 1];
    pending_inbox_resets_ = 0;
    for (const RegionRun& rr : regions)
      if (rr.rounds == rounds)
        pending_inbox_resets_ += rr.touched_by_round[rounds - 1];
  } else {
    pending_inbox_resets_ = bulk.degpos_total;
  }
  for (const RegionRun& rr : regions)
    sharded_dirty_.insert(sharded_dirty_.end(), rr.final_touched.begin(),
                          rr.final_touched.end());

  // Trace ids: n beacon ids (assigned whether or not materialized) plus
  // the regions' interleaved round-phase block.
  trace_seq_ = sharded_base_ + bulk.n_total +
               static_cast<std::uint64_t>(max_sends) * regions.size();

  if (obs_ != nullptr) {
    // Region-ascending journal flush + summed accumulator merges keep
    // every observable bitwise-identical across thread counts.
    for (const RegionRun& rr : regions)
      for (const obs::JournalEvent& e : rr.journal)
        obs_->journal.record(e.round, e.node, e.type, e.trace_id,
                             e.parent_id, e.depth, e.a, e.b);
    for (const RegionRun& rr : regions) {
      if (rr.depth_counts.size() > depth_counts_.size())
        depth_counts_.resize(rr.depth_counts.size(), 0);
      for (std::size_t d = 0; d < rr.depth_counts.size(); ++d)
        depth_counts_[d] += rr.depth_counts[d];
      if (rr.inbox_size_counts.size() > inbox_size_counts_.size())
        inbox_size_counts_.resize(rr.inbox_size_counts.size(), 0);
      for (std::size_t s = 0; s < rr.inbox_size_counts.size(); ++s)
        inbox_size_counts_[s] += rr.inbox_size_counts[s];
    }
    // Round 1 inbox sizes are the degree histogram (every degpos node's
    // inbox holds exactly its neighbors' beacons).
    if (!bulk.deg_count.empty() &&
        bulk.deg_count.size() > inbox_size_counts_.size())
      inbox_size_counts_.resize(bulk.deg_count.size(), 0);
    for (std::size_t d = 1; d < bulk.deg_count.size(); ++d)
      inbox_size_counts_[d] += static_cast<std::uint32_t>(bulk.deg_count[d]);
  }
  for (std::uint32_t k = 1; k <= rounds; ++k) {
    std::size_t queued = 0;
    for (const RegionRun& rr : regions)
      if (k <= rr.rounds) queued += rr.queued[k - 1];
    if (obs_ != nullptr) in_flight_hist_.record(queued);
    if (recent_in_flight_.size() >= kLivelockWindow)
      recent_in_flight_.erase(recent_in_flight_.begin());
    recent_in_flight_.emplace_back(round_ + k, queued);
  }

  round_ += rounds;
  rounds_counter_.add(rounds);
  quiescence_gauge_.set(round_);
  if (obs_ != nullptr) flush_obs();
  return rounds;
}

}  // namespace manet::net
