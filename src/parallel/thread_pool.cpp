#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdint>

#include "concurrency/backoff.hpp"
#include "testkit/hooks.hpp"

namespace pdc::parallel {

namespace {
thread_local std::size_t t_worker_index = SIZE_MAX;
thread_local const ThreadPool* t_current_pool = nullptr;

constexpr std::size_t kInjectCapacity = 1u << 12;
// Empty scans a worker makes before it parks.
constexpr std::uint32_t kIdleSpins = 32;
// Max tasks claimed per steal sweep (further capped at half the victim's
// backlog by ChaseLevDeque::steal_batch).
constexpr std::size_t kStealBatch = 8;

support::Status closed_status() {
  return {support::StatusCode::kClosed, "pool shut down"};
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : inject_(kInjectCapacity) {
  const std::size_t n =
      threads != 0 ? threads
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    if constexpr (obs::kObsEnabled) {
      workers_.back()->depth_hist = &obs::MetricsRegistry::instance().histogram(
          "pdc.steal.deque_depth.w" + std::to_string(i));
    }
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

support::Status ThreadPool::post(Task fn) {
  // Dekker-style handshake with the worker exit check: raise pending_
  // (seq_cst) BEFORE reading closed_, while workers read closed_ before
  // pending_. If we see closed == false here, any worker that later sees
  // closed == true is ordered after our increment and keeps draining —
  // an accepted post can never be stranded by racing shutdown.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (closed_.load(std::memory_order_seq_cst)) {
    finish_one();  // a quiescence waiter may have counted it
    return closed_status();
  }
  if (t_current_pool == this) {
    // Locality: child tasks stay with the forker, LIFO at the deque
    // bottom. No lock, no CAS — the owner-side Chase–Lev fast path.
    Worker& w = *workers_[t_worker_index];
    TaskNode* node = w.slab.acquire();
    node->fn = std::move(fn);
    w.deque.push(node);
    if constexpr (obs::kObsEnabled) {
      const auto depth =
          static_cast<std::uint64_t>(w.deque.size_estimate());
      PDC_OBS_HIST("pdc.steal.deque_depth", depth);
      w.depth_hist->record(depth);
    }
  } else {
    // External producers go through the bounded MPMC injection queue; a
    // full queue is backpressure (back off until workers drain it), not
    // an error — unless the pool closes while we wait.
    concurrency::Backoff backoff;
    while (!inject_.try_push(std::move(fn))) {
      if (closed_.load(std::memory_order_acquire)) {
        finish_one();
        return closed_status();
      }
      PDC_OBS_COUNT("pdc.steal.inject_full");
      testkit::poll_pause("pool.inject.full");
      backoff.step();
    }
  }
  // Only an accepted task counts, so spawned == run at quiescence.
  PDC_OBS_COUNT("pdc.steal.spawned");
  wake_one();
  return support::Status::ok();
}

void ThreadPool::shutdown() {
  if (joined_) return;
  joined_ = true;
  closed_.store(true, std::memory_order_seq_cst);
  {
    // Notify under the lock: a worker between its predicate check and its
    // park must not miss the close (and the CV must outlive the notify).
    std::scoped_lock lock(idle_mutex_);
    testkit::notify_all(idle_cv_);
  }
  // Workers leave once the pool is closed and drained — including tasks an
  // external helper is still running, whose finish_one() wakes them.
  for (auto& t : threads_) t.join();
}

bool ThreadPool::inside_worker() const { return t_current_pool == this; }

bool ThreadPool::has_queued_work() const {
  if (inject_.size_estimate() != 0) return true;
  return std::any_of(workers_.begin(), workers_.end(), [](const auto& w) {
    return w->deque.size_estimate() != 0;
  });
}

bool ThreadPool::drained() const {
  return closed_.load(std::memory_order_seq_cst) &&
         pending_.load(std::memory_order_seq_cst) == 0;
}

void ThreadPool::wake_one() {
  // The producer half of the park handshake (see worker_loop): the task
  // is already in a queue; the fence orders that push before the loads
  // below, so a worker that stops searching or parks concurrently either
  // sees the task in its post-fence scan or is seen here.
  // parked_ first: in a busy pool it is 0 and its line rarely changes,
  // while searching_ moves every time a worker runs dry.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed) == 0) return;
  if (searching_.load(std::memory_order_relaxed) != 0) return;
  // Claim the search for the worker we are about to wake, so later posts
  // in the same burst skip the lock and the notify until it has looked.
  std::size_t idle = 0;
  if (!searching_.compare_exchange_strong(idle, 1, std::memory_order_seq_cst)) {
    return;  // a worker started searching meanwhile
  }
  {
    std::scoped_lock lock(idle_mutex_);
    if (parked_.load(std::memory_order_relaxed) > wake_tokens_) {
      ++wake_tokens_;
      PDC_OBS_COUNT("pdc.steal.wakes");
      testkit::notify_one(idle_cv_);
      return;
    }
  }
  // The parked worker left on its own before we got the lock: give the
  // claim back the way a searcher that found work does.
  stop_searching();
}

void ThreadPool::stop_searching() {
  if (searching_.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
  // Last searcher out: a post that saw our unit skipped its wake, so look
  // for queued work after the fence (the consumer half of the handshake)
  // and pass the search on. With nobody parked there is no one to pass it
  // to: every worker scans again before it parks.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_relaxed) == 0) return;
  if (has_queued_work()) wake_one();
}

bool ThreadPool::try_take(std::size_t self, Task& out) {
  if (self != SIZE_MAX) {
    TaskNode* node = nullptr;
    if (workers_[self]->deque.pop(node)) {
      out = std::move(node->fn);
      TaskSlab::release(node, /*owner=*/true);
      return true;
    }
  }
  if (inject_.try_pop(out)) return true;
  // Entering the steal sweep: visible to the sampling profiler as
  // "stealing" until the next running/parked publish (no-op for external
  // threads, which have no bound slot).
  obs::publish_worker_state(obs::WorkerState::kStealing);
  // Steal sweep starting at a rotating offset to spread contention. A
  // kLost race with nothing claimed (someone else got the element first)
  // retries the same victim — losing means there IS work, the worst time
  // to give up. Workers steal a *batch* (up to kStealBatch, capped at half
  // the victim's backlog): the first task is returned, the surplus is
  // re-homed into the stealer's own slab and deque so a fine-grained flood
  // costs one sweep instead of one sweep per task. External threads (no
  // own deque to bank into) keep the single steal.
  const std::size_t n = workers_.size();
  const std::size_t start = next_victim_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t want = (self != SIZE_MAX) ? kStealBatch : 1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self) continue;
    for (;;) {
      TaskNode* nodes[kStealBatch];
      StealResult last = StealResult::kEmpty;
      const std::size_t got =
          workers_[victim]->deque.steal_batch(nodes, want, &last);
      if (got > 0) {
        PDC_OBS_COUNT("pdc.steal.stolen", got);
        if (got > 1) PDC_OBS_HIST("pdc.steal.batch", got);
        out = std::move(nodes[0]->fn);
        TaskSlab::release(nodes[0], /*owner=*/false);
        // Surplus: move each closure into a node from OUR slab and push it
        // onto OUR deque (owner-side, no CAS); the victim's nodes go back
        // through its remote-free stack. pending_ is untouched — the tasks
        // merely changed queues, none completed. got > 1 implies a worker
        // (external threads request want == 1), so workers_[self] is valid.
        if (got > 1) {
          Worker& mine = *workers_[self];
          for (std::size_t i = 1; i < got; ++i) {
            TaskNode* rehomed = mine.slab.acquire();
            rehomed->fn = std::move(nodes[i]->fn);
            TaskSlab::release(nodes[i], /*owner=*/false);
            mine.deque.push(rehomed);
          }
          wake_one();  // banked work: let a parked peer help
        }
        return true;
      }
      if (last == StealResult::kEmpty) break;
      concurrency::cpu_relax();  // kLost: contended, try again immediately
    }
  }
  return false;
}

bool ThreadPool::run_one(std::size_t self) {
  Task task;
  if (!try_take(self, task)) return false;
  run_task(task);
  return true;
}

void ThreadPool::run_task(Task& task) {
  PDC_OBS_COUNT("pdc.steal.run");
  {
    // The per-task store pair: running before, the saved word after
    // (restored by the scope so nested helpers attribute correctly).
    // External helper threads have no slot and skip both stores.
    obs::ProfiledTask profiled(obs::Profiler::kTaskLabel);
    task();
    // Destroy the closure before the task counts as finished: whoever
    // wait_idle() or shutdown() releases may free what it captured.
    task.reset();
  }
  finish_one();
}

void ThreadPool::finish_one() {
  // The last task out releases whoever waits for it: quiescence waiters,
  // and after close the parked workers, which may now leave. seq_cst pairs
  // with a waiter raising quiescence_waiters_ (or with shutdown storing
  // closed_) before it reads pending_, so the waiter is either seen here
  // or sees 0 itself. Otherwise no lock is taken — parked workers sleep on
  // a different CV and are not woken by completions.
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
  const bool closed = closed_.load(std::memory_order_seq_cst);
  if (!closed && quiescence_waiters_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  // Under the lock: the waiter may destroy the pool the instant the
  // predicate holds.
  std::scoped_lock lock(idle_mutex_);
  testkit::notify_all(quiescent_cv_);
  if (closed) testkit::notify_all(idle_cv_);
}

void ThreadPool::help_while(const std::function<bool()>& done) {
  const std::size_t self = inside_worker() ? t_worker_index : SIZE_MAX;
  concurrency::Backoff backoff;
  while (!done()) {
    if (run_one(self)) {
      backoff.reset();
      continue;
    }
    testkit::spin_yield("pool.help");
    backoff.step();  // spin/yield only: stay responsive to done()
  }
}

void ThreadPool::wait_idle() {
  PDC_CHECK_MSG(!inside_worker(), "wait_idle from a worker of the same pool");
  concurrency::Backoff backoff;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (run_one(SIZE_MAX)) {
      backoff.reset();
      continue;
    }
    if (!backoff.park_ready()) {
      testkit::spin_yield("pool.wait_idle");
      backoff.step();
      continue;
    }
    // Last rung: park until finish_one() sees pending_ reach 0 with a
    // waiter registered (the seq_cst pair described there).
    quiescence_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock lock(idle_mutex_);
      testkit::wait(
          lock, quiescent_cv_,
          [&] { return pending_.load(std::memory_order_seq_cst) == 0; },
          "pool.wait_idle.park");
    }
    quiescence_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_index = self;
  t_current_pool = this;
  // Profiler slot, published via the bound-slot helpers in run_one and
  // try_take; slots are keyed by name so repeated pool construction reuses
  // them (see obs/profile.hpp).
  obs::WorkerSlot* slot = nullptr;
  if constexpr (obs::kObsEnabled) {
    slot = obs::Profiler::instance().register_worker("steal.w" +
                                                     std::to_string(self));
    obs::Profiler::bind_current_thread(slot);
  }
  // Spin, then park: no yield rungs. A worker that yields keeps getting
  // rescheduled on an idle host and burns a core between requests.
  concurrency::Backoff backoff(kIdleSpins, /*yield_limit=*/0);
  // Whether this worker holds a unit of searching_: from its first empty
  // scan until it takes a task or parks, and from a wake until it has
  // looked (see wake_one).
  bool searching = false;
  for (;;) {
    Task task;
    if (try_take(self, task)) {
      if (searching) {
        searching = false;
        stop_searching();
      }
      run_task(task);
      backoff.reset();
      continue;
    }
    // seq_cst pair with post(): see the handshake comment there.
    if (drained()) break;
    if (!searching) {
      searching = true;
      searching_.fetch_add(1, std::memory_order_seq_cst);
    }
    if (!backoff.park_ready()) {
      backoff.step();
      continue;
    }
    // Park handshake (Dekker): stop searching, raise parked_, fence, then
    // look at the queues in the wait predicate; a producer pushes its
    // task, fences, then reads parked_ and searching_ (wake_one). Either
    // this worker sees the task, or the producer sees it searching or
    // parked and wakes a worker under idle_mutex_, which the predicate
    // check also holds — so the wait needs no timed backstop. A task a
    // peer is running does not keep this worker awake: only queued work
    // does. After close it also wakes to leave once the last task
    // finished (finish_one).
    searching = false;
    searching_.fetch_sub(1, std::memory_order_seq_cst);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    PDC_OBS_GAUGE_ADD("pdc.steal.parked_workers", 1);
    if constexpr (obs::kObsEnabled) {
      slot->publish(obs::WorkerState::kParked);
    }
    {
      std::unique_lock lock(idle_mutex_);
      testkit::wait(
          lock, idle_cv_,
          [&] { return wake_tokens_ != 0 || drained() || has_queued_work(); },
          "pool.park");
      // Leave under the lock, so wake_one never hands a wake to a worker
      // that is already gone. A handed wake carries its searching unit;
      // without one the worker takes its own.
      parked_.fetch_sub(1, std::memory_order_relaxed);
      if (wake_tokens_ != 0) {
        --wake_tokens_;
      } else {
        searching_.fetch_add(1, std::memory_order_seq_cst);
      }
      searching = true;
    }
    if constexpr (obs::kObsEnabled) {
      slot->publish(obs::WorkerState::kIdle);
    }
    PDC_OBS_GAUGE_SUB("pdc.steal.parked_workers", 1);
    backoff.reset();
  }
  if constexpr (obs::kObsEnabled) {
    obs::Profiler::bind_current_thread(nullptr);
    obs::Profiler::instance().release_worker(slot);
  }
  t_current_pool = nullptr;
  t_worker_index = SIZE_MAX;
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pdc::parallel
