// Synchronous-round discrete-event simulator over an ideal broadcast
// medium.
//
// Time advances in rounds (the unit-time model the paper's complexity
// analysis uses). A message sent in round r is delivered to every
// neighbor of the sender at the start of round r+1 — the paper assumes
// collisions and contention are resolved below the network layer, so the
// medium is lossless. Each node is a protocol state machine; the
// simulation runs until no messages are in flight and no node wants to
// transmit.
//
// Two topology sources: a fixed graph::Graph snapshot (construction
// protocols) or any Topology implementation whose adjacency may change
// between run() calls (the maintenance protocol reads the mobile
// unit-disk overlay through it). Delivery is by reference: each receiver
// gets pointers into the shared in-flight storage, never a copy of the
// message bodies (which carry whole NodeSets), so one round's delivery
// work is O(messages x degree) pointer pushes regardless of payload.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"
#include "net/message.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::net {

/// The causal ancestry a node declares for an outgoing message: the
/// trace id of the received message that triggered it plus that
/// message's wave depth (both read off the triggering Message).
struct Cause {
  std::uint64_t id = 0;     ///< parent trace id (0 = no cause, wave root)
  std::uint32_t depth = 0;  ///< parent's depth (child = depth + 1)
};

/// Interface handed to a node when it may transmit.
class Mailbox {
 public:
  virtual ~Mailbox() = default;
  /// Queues a local broadcast for delivery next round (a wave root:
  /// no causal parent).
  virtual void send(MessageBody body) = 0;
  /// Causal send: like send(), with the triggering message declared so
  /// the envelope carries parent id + depth. Default ignores the cause
  /// (custom mailboxes that predate causal tracing keep working).
  virtual void send_caused(MessageBody body, Cause cause) {
    (void)cause;
    send(std::move(body));
  }
};

/// Messages delivered to one node this round, as pointers into the
/// simulator's shared in-flight storage (valid for the duration of the
/// on_round call).
using Inbox = std::span<const Message* const>;

/// A protocol state machine living on one node.
class NodeProcess {
 public:
  virtual ~NodeProcess() = default;

  /// Called once before round 0.
  virtual void start(Mailbox& out) = 0;

  /// Called every round the node is dispatched, with the messages
  /// delivered this round (possibly none). May transmit via `out`.
  virtual void on_round(std::uint32_t round, Inbox inbox, Mailbox& out) = 0;

  /// Timer tick (Simulator::trigger_timers — e.g. the maintenance
  /// protocol's per-mobility-tick HELLO pacing). Default: no-op.
  virtual void on_timer(std::uint32_t round, Mailbox& out) {
    (void)round;
    (void)out;
  }

  /// Event-driven dispatch only: true while the node has pending
  /// obligations (running expiry timers, undecided repair state) and
  /// must be dispatched next round even with an empty inbox. A node
  /// with no inbox and awake() == false sleeps through the round.
  virtual bool awake() const { return false; }

  /// True once the node will never transmit again regardless of input
  /// (used only as a liveness diagnostic).
  virtual bool done() const = 0;
};

/// Topology the medium delivers over. Implementations may mutate their
/// adjacency between run() calls (never during one); the simulator reads
/// through the interface every round.
class Topology {
 public:
  virtual ~Topology() = default;
  virtual std::size_t order() const = 0;
  /// Sorted neighbors of `v`.
  virtual std::span<const NodeId> neighbors(NodeId v) const = 0;
};

/// Delivery-layer cost accounting: the satellite O(messages) contract.
/// `deliveries` counts inbox pointer pushes (one per message x receiving
/// neighbor); `inbox_resets` counts per-round inbox clears, which only
/// happen on inboxes that received something (so bookkeeping never scales
/// with the node count); `dispatches` counts on_round invocations.
struct DeliveryStats {
  std::size_t deliveries = 0;
  std::size_t inbox_resets = 0;
  std::size_t dispatches = 0;
};

/// Nodes per chunk of one region phase (the timer phase over the sorted
/// scope, or one round's sorted dispatch list). Chunk boundaries depend
/// only on the node list, never on the lane count, so the chunk-order
/// merge reproduces the single-lane loop at every thread count.
inline constexpr std::size_t kRegionChunkNodes = 128;

/// The outputs one chunk of a region phase writes privately; the phase
/// merges them into its RegionRun in chunk order. Cache-line aligned:
/// neighboring chunks run on different lanes and write on every send.
struct alignas(64) RegionChunk {
  std::vector<Message> sends;  ///< round-phase sends, unstamped
  MessageCounts counts;
  std::vector<std::uint32_t> depth_counts;
  std::vector<NodeId> awake;   ///< chunk nodes awake() after dispatch
  std::vector<obs::JournalEvent> journal;  ///< parallel to `sends`
  std::uint64_t step_ns = 0;   ///< wall time in this chunk's node code
};

/// Runs job(chunk, lane) for every chunk in [0, count) and returns once
/// all have finished; `lane` names the executing lane for lane-indexed
/// scratch. The maintenance engine passes its worker pool's run().
using ChunkJob = std::function<void(std::size_t chunk, std::size_t lane)>;
using ChunkRunner = std::function<void(std::size_t count, const ChunkJob&)>;

/// The engine's side of Simulator::run_region.
struct RegionHooks {
  /// Before every on_timer / on_round of scope node `v`, on the
  /// executing lane: binds the node's dispatch context (the engine binds
  /// the chunk's change ledger and the lane's kernel scratch). `chunk`
  /// indexes the chunk within the current phase.
  std::function<void(NodeId v, std::size_t chunk, std::size_t lane)> bind;
  /// After every scope node's on_timer (heard-mark synthesis for live
  /// out-of-scope neighbors whose beacons the scope filter withholds).
  std::function<void(NodeId v)> after_timer;
  /// Serially after every phase, once all its chunks finished: fold the
  /// first `chunks` chunk contexts into the region's state in chunk
  /// order.
  std::function<void(std::size_t chunks)> end_phase;
  /// Executes a phase's chunks; empty = inline on lane 0.
  ChunkRunner run_chunks;
};

/// Private execution context of one active repair region during a
/// sharded maintenance tick (Simulator::run_region). The caller sets the
/// inputs, run_region fills the outputs, finish_sharded_tick merges them
/// region-ascending. Instances are reusable across ticks (run_region
/// resets the outputs); the scratch vectors amortize to zero allocation.
struct RegionRun {
  // ---- inputs ----
  std::span<const NodeId> scope;   ///< sorted in-scope node ids
  std::uint32_t region = 0;        ///< 0-based index among active regions
  std::uint32_t region_count = 1;  ///< number of active regions this tick
  // ---- outputs ----
  std::uint32_t rounds = 0;  ///< local rounds to regional quiescence
  std::uint32_t sends = 0;   ///< round-phase sends (beacons excluded)
  MessageCounts counts;      ///< sends by type (beacons included)
  DeliveryStats delivery;    ///< in-scope deliveries/dispatches (resets
                             ///< are accounted analytically at merge)
  std::size_t round1_deliveries = 0;  ///< in-scope beacon deliveries
  std::size_t cross_scope_late = 0;   ///< scope-filtered sends, rounds>=2
                                      ///< (independence violations; 0)
  std::uint32_t chunked_phases = 0;   ///< phases run as > 1 chunk
  std::uint64_t deliver_ns = 0;  ///< wall time in delivery passes
  std::uint64_t step_ns = 0;     ///< on_timer/on_round time, summed
                                 ///< over chunks (CPU time)
  /// queued[j-1] = messages queued for delivery after local round j.
  std::vector<std::size_t> queued;
  /// touched_by_round[j-1] = inboxes that received in local round j.
  std::vector<std::uint32_t> touched_by_round;
  /// Nodes whose inboxes are left non-empty at regional quiescence
  /// (cleared by the next begin_sharded_tick).
  std::vector<NodeId> final_touched;
  /// Exact inbox-size occurrence counts, local rounds >= 2 only (round
  /// 1 is the beacon storm, bulk-recorded from the degree histogram).
  std::vector<std::uint32_t> inbox_size_counts;
  /// Caused-send counts by causal depth (observed runs only).
  std::vector<std::uint32_t> depth_counts;
  /// Journal events of this run (observed runs only). Regions buffer
  /// them while running concurrently; finish_sharded_tick records them
  /// region-ascending, so the session journal is bitwise-identical
  /// across thread counts. The tick field is stamped at record time.
  std::vector<obs::JournalEvent> journal;
  // ---- private scratch ----
  std::vector<Message> flight, next_flight;
  std::vector<NodeId> touched, awake, dispatch;
  /// This region's delivery arena (the shared per-node offset arrays are
  /// written only at in-scope indices, so regions never contend).
  std::vector<const Message*> arena;
  /// Chunk outputs of the current phase (kRegionChunkNodes nodes each).
  std::vector<RegionChunk> chunks;
};

/// The whole-network quantities finish_sharded_tick needs to account for
/// everything the region runs skipped: out-of-scope beacons, their
/// deliveries, and the quiescent bulk of round-1 bookkeeping.
struct ShardedMergeInputs {
  std::size_t n_total = 0;         ///< all nodes (every one beacons)
  std::size_t scope_total = 0;     ///< sum of active scope sizes
  std::size_t edges2 = 0;          ///< 2|E| after this tick's commit
  std::size_t degpos_total = 0;    ///< nodes with degree > 0
  std::size_t degpos_in_scope = 0; ///< ... of the active scopes
  /// deg_count[d] = number of nodes with degree d (d >= 1 used).
  std::span<const std::size_t> deg_count;
};

/// Runs a set of NodeProcesses over the topology until quiescence.
class Simulator {
 public:
  using Factory = std::function<std::unique_ptr<NodeProcess>(NodeId)>;

  /// How nodes are dispatched each round.
  enum class Dispatch {
    /// Every node, every round (the construction protocols' round
    /// clock doubles as their phase driver). Quiescence = a full round
    /// with no traffic in or out.
    kEveryNode,
    /// Only nodes with a non-empty inbox or awake() == true — O(work),
    /// not O(n), per round. Quiescence = nothing in flight and no node
    /// awake. The maintenance protocol's mode.
    kEventDriven,
  };

  /// Creates one process per vertex of `g` via `factory`; every-node
  /// dispatch.
  Simulator(const graph::Graph& g, const Factory& factory);

  /// Dynamic-topology mode: delivery reads `topo` (which must outlive
  /// the simulator) every round, so adjacency edits between run() calls
  /// take effect immediately. Event-driven dispatch.
  Simulator(const Topology& topo, const Factory& factory);

  /// Runs to quiescence; returns the number of rounds executed by this
  /// call. Throws std::runtime_error if `max_rounds` elapse first
  /// (livelock guard). The first call invokes every process's start();
  /// later calls resume — inject() then run() models multi-phase
  /// protocols (e.g. backbone construction followed by data broadcasts).
  std::uint32_t run(std::uint32_t max_rounds = 100000);

  /// Invokes every process's on_timer (queued transmissions deliver in
  /// the first round of the next run()) and re-polls awake(). The
  /// maintenance engine calls this once per mobility tick, after
  /// committing the tick's adjacency changes.
  void trigger_timers();

  /// Queues a transmission from `from` for the next run() (an external
  /// stimulus, e.g. a data packet handed to the network layer).
  void inject(NodeId from, MessageBody body);

  // ---- Region-sharded maintenance ticks ----------------------------------
  //
  // The maintenance protocol's repair waves are confined to the painted
  // dirty regions of the tick's movement (incr::RegionPartition with
  // region_scopes): nodes of distinct regions exchange no messages
  // within a tick, and nodes outside every region do nothing but beacon
  // and refresh heard flags. A sharded tick exploits that:
  //
  //   base = begin_sharded_tick();          // once, sequential
  //   run_region(rr_i, tag, ...);           // concurrently, one per region
  //   finish_sharded_tick(regions, bulk);   // once, sequential
  //
  // run_region replays the legacy tick exactly for its scope — timer
  // phase (one beacon per node, trace id base+v+1, the id the sequential
  // trigger_timers would assign), then rounds to regional quiescence
  // with delivery filtered to the scope. Everything the scopes exclude
  // is bulk-accounted at merge from whole-network aggregates, making a
  // tick's cost O(active work), not O(n), while every counter, metric
  // and histogram lands bitwise-identical to the same tick sequence run
  // at any other thread count.

  /// Opens a sharded tick: clears the inboxes the previous sharded tick
  /// left dirty and returns the tick's trace-id base (the current send
  /// sequence). Event-driven dispatch only; per-send observers are not
  /// supported (regions journal into private buffers instead).
  std::uint64_t begin_sharded_tick();

  /// Runs one active region to quiescence. `scope_tag[v] == rr.region+1`
  /// identifies rr's scope (any other value is foreign). Callable
  /// concurrently for distinct regions (disjoint scopes touch disjoint
  /// node state and inboxes).
  ///
  /// Node-parallel phases: within one round a node acts only on its own
  /// inbox and state, so every phase (the timer phase over the scope,
  /// then each round's dispatch list) is cut into kRegionChunkNodes-node
  /// chunks that hooks.run_chunks may execute concurrently. Node code
  /// may therefore touch only its own state, the state hooks.bind gives
  /// it for this dispatch (its chunk's ledger, its lane's scratch) and
  /// internally synchronized shared stores (the engine's RowStore). Each
  /// chunk collects its sends, counts, journal and awake list privately;
  /// the phase merges them in chunk order and stamps the round-phase
  /// trace ids there (beacon ids stay base + v + 1), then calls
  /// hooks.end_phase. The merged run is byte-for-byte the single-lane
  /// loop's at every thread count.
  void run_region(RegionRun& rr, const std::uint32_t* scope_tag,
                  const RegionHooks& hooks,
                  std::uint32_t max_rounds = 100000);

  /// Merges the region runs (region-ascending — deterministic) plus the
  /// bulk accounting of everything out of scope; advances the round
  /// clock by the tick's round count R = max(1, max_r rounds_r) and
  /// returns it. Call with an empty span for a fully quiescent tick
  /// (beacons and round-1 bookkeeping are still accounted).
  std::uint32_t finish_sharded_tick(std::span<RegionRun> regions,
                                    const ShardedMergeInputs& bulk);

  /// Total scope-filtered deliveries in local rounds >= 2 across all
  /// sharded ticks so far. Always 0 unless region independence is
  /// violated (the partition-separation property test's subject).
  std::size_t cross_scope_late() const { return cross_scope_late_; }

  /// Region phases run as more than one chunk across all sharded ticks
  /// so far. Deterministic: chunk boundaries depend only on node lists.
  std::size_t chunked_phases() const { return chunked_phases_; }

  /// Observer invoked for every transmission (round, message) — used by
  /// the trace example and available for custom instrumentation.
  using Observer = std::function<void(std::uint32_t, const Message&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Attaches an observability session: every transmission is journaled
  /// with its causal envelope, and `net.*` counters/histograms land in
  /// the session's registry (flushed from local accumulators at the end
  /// of each run(), so the per-send hot path is one ring write). The
  /// renderable per-send trace events are synthesized from the journal
  /// at export time — pass the session's journal to
  /// TraceRecorder::write_chrome_trace. nullptr detaches (flushing any
  /// pending accumulation). The session must outlive the simulator.
  void set_obs(obs::Session* session);

  /// Per-depth counts of caused transmissions accumulated since the last
  /// reset (index = causal depth; roots are not counted). Only grows
  /// while a session is attached. The maintenance engine drains this
  /// once per tick into its `proto.conv.wave_depth` histogram.
  const std::vector<std::uint32_t>& wave_depth_counts() const {
    return depth_counts_;
  }
  void reset_wave_depth_counts() {
    depth_counts_.assign(depth_counts_.size(), 0);
  }

  const MessageCounts& counts() const { return counts_; }
  const DeliveryStats& delivery_stats() const { return delivery_; }
  std::uint32_t round() const { return round_; }

  /// Cumulative wall time spent in delivery passes / in node code
  /// (on_timer + on_round), for the bench's per-phase breakdown. Wall
  /// clock, never part of deterministic metrics. Under concurrent region
  /// execution the per-lane times sum, so these read as CPU time there.
  std::uint64_t deliver_ns() const { return deliver_ns_; }
  std::uint64_t step_ns() const { return step_ns_; }

  /// Access to a node's process (for result extraction after run()).
  NodeProcess& process(NodeId v);
  const NodeProcess& process(NodeId v) const;

 private:
  class RoundMailbox;
  class ChunkMailbox;

  /// Runs one region phase over `nodes` in chunks (see run_region): each
  /// chunk calls hooks.bind and `step(v, mailbox)` per node, then polls
  /// the node's awake(). `beacons` (timer phase only, else nullptr) holds
  /// one flight slot per node for its beacon. Returns the chunk count;
  /// outputs sit in rr.chunks for the caller's merge.
  template <typename Step>
  std::size_t run_phase(RegionRun& rr, std::span<const NodeId> nodes,
                        const RegionHooks& hooks, Message* beacons,
                        std::uint32_t journal_round, const Step& step);

  /// The inbox span of `v` in `arena` (empty when nothing was placed —
  /// the begin/cursor entries are then stale and must not be read).
  Inbox inbox_of(NodeId v, const std::vector<const Message*>& arena) const {
    const std::uint32_t c = inbox_count_[v];
    if (c == 0) return Inbox{};
    return Inbox{arena.data() + inbox_begin_[v], c};
  }

  /// Stamps the causal trace id (monotonic send sequence) and counts one
  /// transmission: protocol counters, the user observer, and — when a
  /// session is attached — the journal entry plus local accumulators
  /// (wave depth, per-type counts) flushed by flush_obs().
  void record_send(Message& m);

  /// Pushes the locally accumulated per-type message counts and inbox
  /// sizes into the attached session's registry (end of run(), detach).
  void flush_obs();

  /// Shared constructor body: one process per topology node.
  void create_nodes(const Factory& factory);

  /// Rebuilds awake_ by polling every process (start / timer edges).
  void poll_awake();

  const Topology* topo_;  ///< delivery adjacency (never null)
  /// Owned adapter when constructed from a graph::Graph.
  std::unique_ptr<Topology> owned_topo_;
  Dispatch dispatch_;
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
  MessageCounts counts_;
  DeliveryStats delivery_;
  Observer observer_;
  std::vector<Message> in_flight_;   ///< being delivered this round
  std::vector<Message> next_flight_; ///< queued during this round
  /// Per-node inbox placement in the round's delivery arena (counting
  /// sort: count, then prefix-sum start, then a write cursor). Replaces
  /// a vector-of-vectors — no per-node heap blocks, and a node's whole
  /// footprint here is 12 bytes whether or not it ever receives. Only
  /// entries listed in touched_ have a nonzero count between rounds.
  std::vector<std::uint32_t> inbox_count_, inbox_begin_, inbox_cursor_;
  /// The sequential paths' delivery arena (regions carry their own).
  std::vector<const Message*> arena_;
  std::vector<NodeId> touched_;
  /// Nodes awake() after their last dispatch (event-driven mode).
  std::vector<NodeId> awake_;
  /// Dispatch dedup stamps (touched vs awake), epoch = dispatch_epoch_.
  std::vector<std::uint32_t> seen_stamp_;
  std::uint32_t dispatch_epoch_ = 0;
  bool started_ = false;
  std::uint32_t round_ = 0;
  std::uint64_t trace_seq_ = 0;  ///< causal trace ids handed out so far
  // ---- Sharded-tick bookkeeping ----
  std::uint64_t sharded_base_ = 0;  ///< trace_seq_ at begin_sharded_tick
  std::size_t sharded_n_ = 0;       ///< topology order at tick open
  /// Inboxes the last sharded tick left non-empty (regional final
  /// touched) — physically cleared by the next begin_sharded_tick.
  std::vector<NodeId> sharded_dirty_;
  /// Inbox clears the sequential tick would perform in its NEXT round 1:
  /// the previous tick's never-cleared final touched count (V_{T-1}).
  std::size_t pending_inbox_resets_ = 0;
  std::size_t cross_scope_late_ = 0;
  std::size_t chunked_phases_ = 0;
  std::uint64_t deliver_ns_ = 0;  ///< cumulative delivery wall time
  std::uint64_t step_ns_ = 0;     ///< cumulative node-code wall time
  obs::Session* obs_ = nullptr;
  /// counts_ as of the last flush_obs() — the registry's `net.msg.*`
  /// counters advance by the delta, so per-send work stays off the
  /// atomics.
  MessageCounts last_flushed_counts_;
  /// Exact inbox-size occurrence counts since the last flush (index =
  /// size; sizes are small, degree-bounded integers).
  std::vector<std::uint32_t> inbox_size_counts_;
  /// Caused-send counts by causal depth since the last engine drain.
  std::vector<std::uint32_t> depth_counts_;
  obs::Counter msg_counters_[std::variant_size_v<MessageBody>];
  obs::Counter rounds_counter_;
  obs::Gauge quiescence_gauge_;
  obs::Histogram inbox_hist_;
  obs::Histogram in_flight_hist_;
  /// (round, messages queued for the next round) over the last few
  /// rounds — the livelock diagnostic reported when run() hits its
  /// round limit.
  std::vector<std::pair<std::uint32_t, std::size_t>> recent_in_flight_;
};

}  // namespace manet::net
