// The task scheduler: a fixed-size work-stealing pool, the "think in terms
// of tasks, not threads" foundation (Core Guidelines CP.4, CP.41) under
// parallel_for, the task graph, the parallel sorts and the event-driven
// server. See docs/scheduler.md.
//
//  - each worker owns a lock-free ChaseLevDeque: work posted from inside a
//    worker goes to the bottom of its own deque (LIFO, preserving locality
//    of the most recently forked subproblem) with no atomic RMW; idle
//    workers steal from the top (FIFO, the largest pending subtree) in
//    batches of up to half the victim's backlog;
//  - work posted from outside enters a bounded lock-free MPMC injection
//    queue; a full queue is backpressure, not failure;
//  - task closures travel in parallel::Task (64-byte inline storage) held
//    by per-worker TaskSlab nodes, so post/steal/run allocates nothing in
//    steady state;
//  - a worker is idle when no task is *queued* anywhere, even while its
//    peers run long tasks; idle workers spin briefly, then park on a
//    testkit-instrumented wait, so the SimScheduler can drive it. A post
//    wakes a parked worker only when no worker is already searching, so a
//    burst of forks costs one wake, not one per fork.
//    wait_idle() waits for quiescence on a separate condition, so a
//    finishing task never wakes parked workers.
//
// `help_while` lets a blocked parent execute other tasks instead of
// idling — the work-first principle of Cilk-style schedulers — which is
// how fork/join stays deadlock-free when a worker waits on its own pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "concurrency/mpmc_queue.hpp"
#include "obs/obs.hpp"
#include "parallel/chase_lev.hpp"
#include "parallel/task.hpp"
#include "parallel/task_slab.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace pdc::parallel {

class ThreadPool {
 public:
  /// `threads == 0` uses the hardware concurrency (at least 1).
  /// Worker-local deques grow without bound, so tasks that schedule
  /// further tasks can never block on their own queue.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains queued tasks, then joins every worker (no detach; CP.26).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn()` and returns a future for its result. Exceptions
  /// thrown by `fn` surface through the future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    std::promise<R> promise;
    std::future<R> result = promise.get_future();
    const auto status =
        post(Task([fn = std::forward<Fn>(fn),
                   promise = std::move(promise)]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn();
              promise.set_value();
            } else {
              promise.set_value(fn());
            }
          } catch (...) {
            promise.set_exception(std::current_exception());
          }
        }));
    PDC_CHECK_MSG(status.is_ok(), "submit after ThreadPool shutdown");
    return result;
  }

  /// Fire-and-forget variant for void work the caller synchronizes itself
  /// (e.g. via a latch); with a small closure this allocates nothing.
  /// From a worker the task goes to that worker's own deque; from outside
  /// it goes to the injection queue, backing off while that is full.
  /// Returns kClosed (instead of throwing, unlike submit) after shutdown —
  /// fire-and-forget callers during teardown have nowhere to catch.
  support::Status post(Task fn);

  /// Runs tasks until `done()` returns true. Callable from worker threads
  /// (a fork/join parent waiting on its children) and from outside.
  /// Spins/yields but never parks — the caller must stay responsive to
  /// `done`.
  void help_while(const std::function<bool()>& done);

  /// Blocks until every accepted task has finished and its closure has
  /// been destroyed (quiescence); the calling thread helps run tasks.
  /// Not callable from a worker of this pool (its own task never ends).
  void wait_idle();

  /// Drains queued tasks (and waits for tasks external helpers still run),
  /// then joins every worker. Idempotent; called by the destructor. After
  /// shutdown, `submit` throws and `post` returns kClosed.
  void shutdown();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// True when called from one of this pool's worker threads.
  [[nodiscard]] bool inside_worker() const;

  /// Workers currently parked in the idle wait (diagnostics; also exported
  /// as the pdc.steal.parked_workers gauge).
  [[nodiscard]] std::size_t parked_workers() const {
    return parked_.load(std::memory_order_relaxed);
  }

 private:
  /// One worker's scheduling state, cache-line separated from its peers.
  struct alignas(64) Worker {
    ChaseLevDeque<TaskNode*> deque;
    TaskSlab slab;
    /// Per-worker deque-depth histogram, resolved once at pool
    /// construction so the owner-push path stays lookup-free (null under
    /// PDCKIT_OBS_NOOP). Depth is the racy size_estimate() at push —
    /// monitoring semantics, good enough to see steal imbalance.
    obs::Histogram* depth_hist = nullptr;
  };

  void worker_loop(std::size_t self);

  /// Takes one task: own deque bottom, then the injection queue, then
  /// steal from the top of a rotating sweep of victims. `self` is
  /// SIZE_MAX for external threads (no own deque, single steals).
  bool try_take(std::size_t self, Task& out);

  /// Runs one task if any is available anywhere. Returns false when all
  /// sources were observed empty.
  bool run_one(std::size_t self);

  /// Runs a taken task and counts it finished.
  void run_task(Task& task);

  /// Wakes one parked worker unless a worker is already searching (or was
  /// woken and has not searched yet); skips the lock when none is parked.
  /// Call after pushing a task (the producer half of the park handshake,
  /// see worker_loop).
  void wake_one();

  /// Gives back a searching worker's unit of searching_ once it has found
  /// work. The last searcher out passes the search on (wake_one) when more
  /// work is queued, so a burst wakes workers one at a time.
  void stop_searching();

  /// True when some queue — injection or any worker's deque — looks
  /// non-empty (racy sizes; exact enough for the park handshake).
  [[nodiscard]] bool has_queued_work() const;

  /// Closed and every accepted task finished: workers may leave.
  [[nodiscard]] bool drained() const;

  /// Counts one accepted task finished (or one post refused) and wakes
  /// quiescence waiters when it was the last.
  void finish_one();

  std::vector<std::unique_ptr<Worker>> workers_;
  concurrency::MpmcQueue<Task> inject_;
  std::vector<std::thread> threads_;
  std::atomic<bool> closed_{false};
  /// Accepted tasks whose closure is not yet destroyed.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_victim_{0};
  std::atomic<std::size_t> parked_{0};
  /// Workers looking for work outside the park, plus wakes handed out and
  /// not yet taken up (wake_tokens_). While it is non-zero a post wakes
  /// nobody: a searcher will find the task. On its own line: it changes
  /// whenever a worker runs dry, and every post reads parked_.
  alignas(64) std::atomic<std::size_t> searching_{0};
  /// wait_idle() callers parked (or about to park) on quiescent_cv_.
  std::atomic<std::size_t> quiescence_waiters_{0};
  bool joined_ = false;

  std::mutex idle_mutex_;
  /// Wakes handed to parked workers, each carrying one unit of searching_
  /// to the worker that takes it. Guarded by idle_mutex_.
  std::size_t wake_tokens_ = 0;
  std::condition_variable idle_cv_;       // parked workers: work or drained
  std::condition_variable quiescent_cv_;  // wait_idle(): pending_ == 0
};

/// The process-wide default pool, sized to hardware concurrency. Intended
/// for examples and tests; performance-sensitive code creates its own pool
/// with an explicit size.
ThreadPool& default_pool();

}  // namespace pdc::parallel
