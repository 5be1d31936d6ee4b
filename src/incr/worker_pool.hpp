// Fixed-width worker pool for the incremental engine's repair stages and
// delta-commit scans, with both fork/join and asynchronous submit/wait
// batch execution.
//
// The engine's parallel stages are short (tens of microseconds to a few
// milliseconds) and fire every tick, so thread spawn-per-tick is off
// the table: the pool parks `lanes - 1` workers on a condition variable
// and callers participate as execution lanes themselves, which makes
// lanes == 1 a true zero-thread configuration (run() executes inline on
// the caller, submit() defers until wait()) and keeps the hot hand-off
// to one notify_all.
//
// Jobs are claimed one at a time under the mutex — jobs here are chunky
// (a repair region, a row chunk, a whole deferred repair), counted in
// the tens, so claim contention is irrelevant and the simplicity buys
// easy reasoning: determinism never depends on which lane ran a job,
// because callers index all outputs by job id.
//
// Asynchronous batches (submit/wait) are what the pipelined engine runs
// its deferred tick repairs on: the caller submits the repair as a
// one-job batch, keeps ingesting the next tick on its own lane, and
// joins the ticket at the handoff point. A job may itself call run() or
// submit()/wait() on the same pool (the repair driver fans its stages
// out this way); the one claim loop run() and wait() share always makes
// progress on the claiming thread, so nesting cannot deadlock even with
// zero free workers.
//
// Lane identity: workers own lanes 1..lanes-1 for their lifetime;
// every external thread is lane 0. A job executing on a worker that
// re-enters the pool keeps its worker's lane (thread-local), so
// lane-indexed scratch stays exclusive while the main thread and an
// async repair share the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace manet::obs {
struct Session;
}

namespace manet::incr {

class WorkerPool {
 public:
  /// fn(job, lane): job is the work-item index, lane identifies the
  /// executing lane (0 = any external caller) for per-lane scratch.
  using Job = std::function<void(std::size_t job, std::size_t lane)>;

  /// Handle of one submitted batch; redeemed exactly once by wait().
  class Ticket {
   public:
    Ticket() = default;
    /// True while the ticket references an un-waited batch.
    explicit operator bool() const { return batch_ != nullptr; }

   private:
    friend class WorkerPool;
    struct Batch;
    explicit Ticket(std::shared_ptr<Batch> batch)
        : batch_(std::move(batch)) {}
    std::shared_ptr<Batch> batch_;
  };

  /// `lanes` total execution lanes including the caller; clamped to 1.
  explicit WorkerPool(std::size_t lanes);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  /// Runs fn(job, lane) for every job in [0, jobs) and blocks until all
  /// complete. The caller drains jobs on its own lane alongside the
  /// workers. If any job throws, the first exception (in completion
  /// order) is rethrown after the batch drains; the rest are dropped.
  void run(std::size_t jobs, const Job& fn);

  /// Enqueues a batch without waiting: workers start claiming its jobs
  /// immediately (lanes > 1); with a single lane the batch sits queued
  /// until wait() drains it on the caller. Batches complete in claim
  /// order, not submission order — callers synchronize via wait().
  Ticket submit(std::size_t jobs, Job fn);

  /// Drains and joins one submitted batch: the caller claims this
  /// batch's remaining jobs on its own lane, then blocks until every
  /// claimed job finished. Rethrows the batch's first exception and
  /// invalidates the ticket. Waiting on an empty ticket is a no-op.
  void wait(Ticket& ticket);

  /// Registers per-lane utilization metrics (`incr.lane.<i>.busy_us`,
  /// `incr.lane.<i>.jobs`) and the `incr.pool.queue_depth` gauge on the
  /// session's registry; nullptr detaches. These record wall-clock and
  /// scheduling facts, so they are exempt from the metric-snapshot
  /// determinism contract (MetricsSnapshot::deterministic() drops
  /// them). Call between batches, not while jobs are in flight.
  void set_obs(obs::Session* session);

 private:
  void worker_loop(std::size_t lane);
  /// Claims the batch's next job (mu_ held); a batch whose last job is
  /// claimed leaves the queue.
  std::size_t claim(const std::shared_ptr<Ticket::Batch>& batch);
  /// Queues a batch and wakes the workers (mu_ held).
  void enqueue(std::shared_ptr<Ticket::Batch> batch);
  /// The claim loop run() and wait() share (mu_ held via `lock`): the
  /// caller drains the batch on its own lane, blocks until every claimed
  /// job finished, and rethrows the batch's first exception.
  void join(const std::shared_ptr<Ticket::Batch>& batch,
            std::unique_lock<std::mutex>& lock);
  /// Executes fn(job, lane) outside the lock, recording lane busy time,
  /// and folds any exception into the batch under the pool mutex.
  void execute(Ticket::Batch& batch, std::size_t job, std::size_t lane,
               std::unique_lock<std::mutex>& lock);

  std::size_t lanes_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // All below guarded by mu_.
  bool stopping_ = false;
  /// Batches with unclaimed jobs, oldest first. Fully claimed batches
  /// leave the queue; their waiters watch Batch::done instead.
  std::deque<std::shared_ptr<Ticket::Batch>> queue_;

  // Lane metrics (inert unless set_obs attached a session).
  bool metrics_on_ = false;
  std::vector<obs::Counter> lane_busy_us_;
  std::vector<obs::Counter> lane_jobs_;
  obs::Gauge queue_depth_;
};

}  // namespace manet::incr
