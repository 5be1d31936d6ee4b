// Bounded structured event journal: the protocol half of the flight
// recorder. Where the TraceRecorder holds wall-clock phase spans, the
// Journal keeps *protocol* events — (tick, round, node, message type,
// causal trace/parent ids, payload summary) — so divergence forensics
// and the trace_inspect CLI can walk a repair wave backward through its
// parent links instead of eyeballing a raw event tail. It is also the
// only source of the Chrome export's per-send instants and causal flow
// arrows (TraceRecorder::write_chrome_trace with a journal).
//
// Stored in an obs::Ring (overwrites oldest): after a long soak the
// journal holds the ticks leading up to the failure, which is exactly
// the slice forensics needs. Every stored field is an integer derived
// from deterministic protocol quantities (never wall-clock), so two
// runs of the same seed produce byte-identical journals.
//
// `type` is a borrowed const char* — pass string literals (the message
// type names) that outlive the journal.
//
// Not thread-safe: one journal per instrumented engine (sharded region
// runs buffer their events and the merge records them in order).
// Compiled out entirely with -DMANET_OBS=OFF.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/ring.hpp"

namespace manet::obs {

/// One simulated round maps to 1 ms of trace time — the convention the
/// simulator's timestamps and the export-time synthesis of journal
/// events into Chrome trace events both follow, so protocol exchanges
/// line up round-by-round in Perfetto.
inline constexpr std::uint64_t kRoundNs = 1'000'000;

/// One journaled protocol event (a message transmission).
struct JournalEvent {
  std::uint64_t tick = 0;       ///< engine tick (set_tick epoch)
  std::uint32_t round = 0;      ///< simulator round of the send
  std::uint32_t node = 0;       ///< sending node
  const char* type = "";        ///< message type name (borrowed literal)
  std::uint64_t trace_id = 0;   ///< causal id of this message
  std::uint64_t parent_id = 0;  ///< causal id of the triggering message
  std::uint32_t depth = 0;      ///< causal wave depth (0 = wave root)
  std::uint64_t a = 0;          ///< type-specific payload summary
  std::uint64_t b = 0;          ///< second payload summary
};

/// Bounded protocol-event log with causal-chain queries.
class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Journal(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  /// Engine-tick epoch stamped on subsequent record() calls.
  void set_tick(std::uint64_t tick) {
#if MANET_OBS_ENABLED
    tick_ = tick;
#else
    (void)tick;
#endif
  }
  std::uint64_t current_tick() const { return tick_; }

  /// The simulator's per-send hot path: one ring push.
  void record(std::uint32_t round, std::uint32_t node, const char* type,
              std::uint64_t trace_id, std::uint64_t parent_id,
              std::uint32_t depth, std::uint64_t a, std::uint64_t b) {
    ring_.push({tick_, round, node, type, trace_id, parent_id, depth, a, b});
  }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  /// Events ever recorded (size() plus overwritten ones).
  std::uint64_t total_recorded() const { return ring_.total(); }
  void clear() { ring_.clear(); }

  /// Invokes `fn(event)` oldest-first over the retained window.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    ring_.for_each(std::forward<Fn>(fn));
  }

  /// The retained event with this causal id (ids are unique per run).
  std::optional<JournalEvent> find_trace(std::uint64_t trace_id) const;

  /// The causal slice of a message: the event itself plus every retained
  /// ancestor, oldest first. Empty when the id is not in the window; the
  /// chain ends early where an ancestor has been overwritten.
  std::vector<JournalEvent> causal_chain(std::uint64_t trace_id) const;

  /// The newest retained event sent by `node` (forensics entry point).
  std::optional<JournalEvent> last_event_of(std::uint32_t node) const;

  /// One compact JSON object per line (the trace_inspect CLI's input
  /// format): {"tick":..,"round":..,"node":..,"type":"..","trace":..,
  /// "parent":..,"depth":..,"a":..,"b":..}.
  void write_jsonl(std::ostream& out) const;
  void write_jsonl_file(const std::string& path) const;

  /// Human-readable one-line rendering (forensic dumps, timelines).
  static std::string format_event(const JournalEvent& e);

 private:
  Ring<JournalEvent> ring_;
  std::uint64_t tick_ = 0;
};

}  // namespace manet::obs
