// Fixed-capacity overwrite-oldest ring: the storage of both flight
// recorders (TraceRecorder's spans, Journal's protocol events). It keeps
// the *last* `capacity` values pushed, so after a long soak it holds the
// ticks that led up to a failure — a flight recorder, not a full log.
//
// Not thread-safe. With -DMANET_OBS=OFF, push() compiles to nothing and
// the ring stays empty.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

#ifndef MANET_OBS_ENABLED
#define MANET_OBS_ENABLED 1
#endif

namespace manet::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {
    MANET_REQUIRE(capacity_ > 0, "obs ring needs a positive capacity");
#if MANET_OBS_ENABLED
    slots_.reserve(std::min<std::size_t>(capacity_, 1024));
#endif
  }

  /// Inline: the journal's push is the only per-transmission work on the
  /// simulator's observed hot path, so it must compile down to a handful
  /// of stores.
  void push(const T& e) {
#if MANET_OBS_ENABLED
    if (slots_.size() < capacity_) {
      slots_.push_back(e);
    } else {
      slots_[next_] = e;
#if defined(__GNUC__)
      // A full ring dwarfs the cache, so each slot's first store takes
      // a read-for-ownership miss all the way to DRAM; prefetching a
      // few slots ahead overlaps that miss with protocol work instead
      // of stalling the send.
      constexpr std::size_t kAhead = 8;
      const std::size_t pf = next_ + kAhead < capacity_
                                 ? next_ + kAhead
                                 : next_ + kAhead - capacity_;
      __builtin_prefetch(slots_.data() + pf, 1);
#endif
    }
    if (++next_ == capacity_) next_ = 0;
    ++total_;
#else
    (void)e;
#endif
  }

  /// Invokes `fn(value)` oldest-first over the retained window.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (slots_.size() < capacity_) {
      for (const T& e : slots_) fn(e);
      return;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i)
      fn(slots_[(next_ + i) % capacity_]);
  }

  /// Values currently held (<= capacity).
  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Values ever pushed (size() plus overwritten ones).
  std::uint64_t total() const { return total_; }

  void clear() {
    slots_.clear();
    next_ = 0;
    total_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace manet::obs
