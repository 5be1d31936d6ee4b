#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "common/assert.hpp"
#include "obs/journal.hpp"

namespace manet::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(capacity), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceRecorder::now_ns() const {
#if MANET_OBS_ENABLED
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
#else
  return 0;
#endif
}

void TraceRecorder::write_chrome_trace(std::ostream& out,
                                       const Journal* journal) const {
  // Ring-wrap orphan repair: a journal event's 'f' (the arrow from its
  // parent) is only emitted when the parent's own event — and thus its
  // 's' — survives in the journal window.
  std::unordered_set<std::uint64_t> journal_ids;
  if (journal != nullptr)
    journal->for_each(
        [&](const JournalEvent& je) { journal_ids.insert(je.trace_id); });

  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  const auto us = [&](std::uint64_t ns) {
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
    return buf;
  };
  // Opens one event: the fields every phase carries, up to the timestamp.
  const auto open = [&](const char* cat, const char* name, char phase,
                        std::uint32_t tid, std::uint64_t ts_ns) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"" << phase << "\",\"pid\":0,\"tid\":" << tid
        << ",\"ts\":" << us(ts_ns);
  };

  if (journal != nullptr)
    journal->for_each([&](const JournalEvent& je) {
      const std::uint64_t ts = std::uint64_t{je.round} * kRoundNs;
      open("net", je.type, 'i', je.node, ts);
      out << ",\"s\":\"t\",\"args\":{\"tick\":" << je.round
          << ",\"from\":" << je.node << "}}";
      open("proto", "wave", 's', je.node, ts);
      out << ",\"id\":" << je.trace_id << ",\"args\":{\"tick\":" << je.round
          << "}}";
      if (je.parent_id != 0 && journal_ids.contains(je.parent_id)) {
        open("proto", "wave", 'f', je.node, ts);
        out << ",\"id\":" << je.parent_id
            << ",\"bp\":\"e\",\"args\":{\"tick\":" << je.round << "}}";
      }
    });

  ring_.for_each([&](const TraceEvent& e) {
    open(e.cat, e.name, 'X', e.tid, e.ts_ns);
    out << ",\"dur\":" << us(e.dur_ns) << ",\"args\":{\"tick\":" << e.tick;
    if (e.arg_name) out << ",\"" << e.arg_name << "\":" << e.arg;
    out << "}}";
  });
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void TraceRecorder::write_chrome_trace_file(const std::string& path,
                                            const Journal* journal) const {
  std::ofstream out(path);
  MANET_REQUIRE(out.good(), "cannot open trace output file: " + path);
  write_chrome_trace(out, journal);
}

void TraceRecorder::dump_tail(std::ostream& out,
                              std::size_t max_events) const {
  const std::size_t held = ring_.size();
  const std::size_t shown = std::min(held, max_events);
  out << "trace tail: last " << shown << " of " << ring_.total()
      << " recorded events\n";
  std::size_t index = 0;
  char buf[64];
  ring_.for_each([&](const TraceEvent& e) {
    ++index;
    if (held - index >= shown) return;  // skip spans before the tail
    std::snprintf(buf, sizeof(buf), "%.1f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out << "  [tick " << e.tick << "] " << e.cat << '/' << e.name << ' '
        << buf << "us";
    if (e.arg_name) out << ' ' << e.arg_name << '=' << e.arg;
    if (e.tid != 0) out << " (tid " << e.tid << ')';
    out << '\n';
  });
}

}  // namespace manet::obs
