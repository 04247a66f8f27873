// Experiment PERF-SCHEDULER — cost of the scheduler itself: lock-free
// Chase–Lev work stealing (PR 3, docs/scheduler.md) against the design it
// replaced, per-worker mutexed deques.
//
//   1. spawn/steal throughput: a flood of trivial tasks, so the measured
//      time is almost purely scheduler overhead (enqueue + dispatch +
//      decrement); reported as tasks/second.
//   2. fork/join latency: a binary task tree forked from inside workers —
//      the owner push/pop fast path plus the steal path, the shape
//      parallel sorts and task graphs generate.
//   3. hot-owner flood: every task lands in one worker's deque.
//   4. idle handoff: a trickle of short tasks from an outside thread, so
//      workers go idle between tasks; reported as worker CPU per task —
//      what parking and waking costs on top of the task's own ~3 us.
//
// The baseline pool below deliberately reproduces the pre-PR-3 scheduler:
// one std::mutex per worker deque, std::function tasks, lock-the-victim
// stealing, an unconditional notify_one per post, and a timed CV wait
// whenever a worker comes up empty. Same topology, same task bodies — only
// the synchronization strategy differs, so the ratio isolates what every
// scheduler transition used to pay in locks and wakeups.
//
// JSON via PDCKIT_BENCH_JSON (obs::BenchReport); compared across commits
// by bench/compare.py against BENCH_baseline.json.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/backoff.hpp"
#include "obs/bench_report.hpp"
#include "parallel/thread_pool.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using pdc::support::Stopwatch;
using pdc::support::TextTable;

// ------------------------------------------------------------ baseline pool

namespace baseline {

// The pre-PR-3 scheduler, reproduced verbatim in structure: per-worker
// deques each guarded by its own mutex (owners push/pop the back, thieves
// lock a victim and take the front), std::function tasks, one
// notify_one per post, and a 1ms timed CV wait when a scan finds nothing.
class MutexedPool {
 public:
  explicit MutexedPool(std::size_t threads) : workers_(threads) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~MutexedPool() {
    wait_idle();
    stopping_.store(true, std::memory_order_release);
    idle_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void post(std::function<void()> fn) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t index =
        (t_pool == this) ? t_index : next_.fetch_add(1) % workers_.size();
    Worker& w = workers_[index];
    {
      std::scoped_lock lock(w.mutex);
      w.queue.push_back(std::move(fn));
    }
    idle_cv_.notify_one();
  }

  void wait_idle() {
    while (pending_.load(std::memory_order_acquire) != 0) {
      if (!run_one(SIZE_MAX)) {
        std::unique_lock lock(idle_mutex_);
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return pending_.load(std::memory_order_acquire) == 0;
        });
      }
    }
  }

 private:
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> queue;
  };

  bool run_one(std::size_t self) {
    std::function<void()> task;
    if (!try_take(self, task)) return false;
    task();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  bool try_take(std::size_t self, std::function<void()>& out) {
    if (self != SIZE_MAX) {
      Worker& w = workers_[self];
      std::scoped_lock lock(w.mutex);
      if (!w.queue.empty()) {
        out = std::move(w.queue.back());
        w.queue.pop_back();
        return true;
      }
    }
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      if (k == self) continue;
      Worker& w = workers_[k];
      std::scoped_lock lock(w.mutex);
      if (!w.queue.empty()) {
        out = std::move(w.queue.front());
        w.queue.pop_front();
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    t_pool = this;
    t_index = self;
    while (!stopping_.load(std::memory_order_acquire)) {
      if (!run_one(self)) {
        std::unique_lock lock(idle_mutex_);
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return stopping_.load(std::memory_order_acquire) ||
                 pending_.load(std::memory_order_acquire) != 0;
        });
      }
    }
    t_pool = nullptr;
  }

  static thread_local const MutexedPool* t_pool;
  static thread_local std::size_t t_index;

  std::deque<Worker> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

thread_local const MutexedPool* MutexedPool::t_pool = nullptr;
thread_local std::size_t MutexedPool::t_index = 0;

}  // namespace baseline

// ------------------------------------------------------------- experiments

constexpr int kSpawnTasks = 200000;
constexpr int kForkDepth = 12;  // binary tree: 2^12 - 1 = 4095 tasks
constexpr int kForkTrees = 20;

/// Spawn-throughput probe: tasks do one relaxed increment, nothing else.
template <typename Pool>
double spawn_tasks_per_second(Pool& pool) {
  alignas(64) static std::atomic<int> sink{0};
  sink.store(0, std::memory_order_relaxed);
  Stopwatch timer;
  for (int i = 0; i < kSpawnTasks; ++i) {
    pool.post([] { sink.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  const double seconds = timer.elapsed_seconds();
  if (sink.load(std::memory_order_relaxed) != kSpawnTasks) {
    std::cerr << "spawn probe lost tasks\n";
    std::exit(1);
  }
  return static_cast<double>(kSpawnTasks) / seconds;
}

/// Fork/join probe: each task forks two children until depth 0; the
/// recursion runs on worker threads, exercising owner push/pop + steals.
template <typename Pool>
void fork_tree(Pool& pool, std::atomic<int>& count, int depth) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return;
  for (int i = 0; i < 2; ++i) {
    pool.post([&pool, &count, depth] { fork_tree(pool, count, depth - 1); });
  }
}

template <typename Pool>
double forkjoin_us_per_tree(Pool& pool) {
  constexpr int kNodes = (1 << kForkDepth) - 1;
  Stopwatch timer;
  for (int tree = 0; tree < kForkTrees; ++tree) {
    std::atomic<int> count{0};
    pool.post([&pool, &count] { fork_tree(pool, count, kForkDepth - 1); });
    pool.wait_idle();
    if (count.load() != kNodes) {
      std::cerr << "fork tree lost tasks\n";
      std::exit(1);
    }
  }
  return timer.elapsed_micros() / kForkTrees;
}

/// Hot-owner flood probe: one worker spawns the whole flood from inside
/// the pool, so every task lands in that worker's deque and the peers can
/// only make progress by stealing from it — the shape a connection-event
/// flood produces when one shard goes hot. This is the probe the
/// steal-half batching in ChaseLevDeque::steal_batch targets: a thief
/// claims up to half the victim's backlog per sweep instead of paying
/// victim selection and a wakeup per task.
template <typename Pool>
double hot_owner_flood_per_second(Pool& pool) {
  alignas(64) static std::atomic<int> sink{0};
  sink.store(0, std::memory_order_relaxed);
  constexpr int kFlood = 100000;
  Stopwatch timer;
  pool.post([&pool] {
    for (int i = 0; i < kFlood; ++i) {
      pool.post([] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  pool.wait_idle();
  const double seconds = timer.elapsed_seconds();
  if (sink.load(std::memory_order_relaxed) != kFlood) {
    std::cerr << "hot-owner flood lost tasks\n";
    std::exit(1);
  }
  return kFlood / seconds;
}

/// CPU time (user + system) of the process or of the calling thread.
double cpu_us(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// Idle-handoff probe: an outside feeder posts one ~3 us task every
/// `period_us` to a 2-worker pool, so every task finds the workers idle.
/// Returns worker CPU per task: process CPU minus the feeder thread's own
/// (it spins to keep the period exact, and never helps run tasks).
double idle_handoff_cpu_us_per_task(int period_us) {
  constexpr int kTasks = 3000;
  constexpr auto kWork = std::chrono::microseconds(3);
  pdc::parallel::ThreadPool pool(2);
  std::atomic<int> done{0};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let workers settle
  const double process_before = cpu_us(RUSAGE_SELF);
  const double feeder_before = cpu_us(RUSAGE_THREAD);
  auto next = std::chrono::steady_clock::now();
  for (int i = 0; i < kTasks; ++i) {
    next += std::chrono::microseconds(period_us);
    while (std::chrono::steady_clock::now() < next) {
      pdc::concurrency::cpu_relax();
    }
    (void)pool.post([&done, kWork] {
      const auto until = std::chrono::steady_clock::now() + kWork;
      while (std::chrono::steady_clock::now() < until) {
        pdc::concurrency::cpu_relax();
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  while (done.load(std::memory_order_acquire) != kTasks) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double feeder = cpu_us(RUSAGE_THREAD) - feeder_before;
  const double process = cpu_us(RUSAGE_SELF) - process_before;
  return (process - feeder) / kTasks;
}

std::string tkey(std::size_t threads) {
  return "t" + std::to_string(threads);
}

}  // namespace

int main() {
  pdc::obs::BenchReport report("perf_scheduler");
  std::cout << "=== PERF-SCHEDULER: lock-free Chase-Lev vs mutexed deques "
               "===\n\n";

  TextTable spawn_table("1. Spawn/steal throughput (tasks/s, higher better)");
  spawn_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable fork_table("2. Fork/join latency (us per 4095-task tree)");
  fork_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable flood_table(
      "3. Hot-owner flood (tasks/s; thieves batch-steal half the backlog)");
  flood_table.set_header(
      {"threads", "mutexed deques", "lock-free", "speedup"});
  TextTable handoff_table(
      "4. Idle handoff (2 workers, one ~3 us task per period from outside; "
      "worker CPU us per task, lower better)");
  handoff_table.set_header({"period", "worker CPU per task"});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    double mutex_spawn = 0.0;
    double mutex_fork = 0.0;
    double mutex_flood = 0.0;
    {
      baseline::MutexedPool pool(threads);
      spawn_tasks_per_second(pool);  // warmup
      mutex_spawn = spawn_tasks_per_second(pool);
      mutex_fork = forkjoin_us_per_tree(pool);
      if (threads > 1) mutex_flood = hot_owner_flood_per_second(pool);
    }
    double lockfree_spawn = 0.0;
    double lockfree_fork = 0.0;
    double lockfree_flood = 0.0;
    {
      pdc::parallel::ThreadPool pool(threads);
      spawn_tasks_per_second(pool);  // warmup
      lockfree_spawn = spawn_tasks_per_second(pool);
      lockfree_fork = forkjoin_us_per_tree(pool);
      if (threads > 1) lockfree_flood = hot_owner_flood_per_second(pool);
    }

    const double spawn_speedup = lockfree_spawn / mutex_spawn;
    const double fork_speedup = mutex_fork / lockfree_fork;
    const std::string key = tkey(threads);
    report.add_metric("spawn.mutex." + key + ".per_s", mutex_spawn);
    report.add_metric("spawn.lockfree." + key + ".per_s", lockfree_spawn);
    report.add_metric("spawn_speedup_vs_mutex." + key, spawn_speedup);
    report.add_metric("forkjoin.mutex." + key + ".us", mutex_fork);
    report.add_metric("forkjoin.lockfree." + key + ".us", lockfree_fork);
    report.add_metric("forkjoin_speedup_vs_mutex." + key, fork_speedup);

    spawn_table.add_row({std::to_string(threads),
                         TextTable::num(mutex_spawn / 1e6, 2) + "M/s",
                         TextTable::num(lockfree_spawn / 1e6, 2) + "M/s",
                         TextTable::num(spawn_speedup, 2) + "x"});
    fork_table.add_row({std::to_string(threads),
                        TextTable::num(mutex_fork, 0),
                        TextTable::num(lockfree_fork, 0),
                        TextTable::num(fork_speedup, 2) + "x"});
    if (threads > 1) {
      const double flood_speedup = lockfree_flood / mutex_flood;
      report.add_metric("flood.mutex." + key + ".per_s", mutex_flood);
      report.add_metric("flood.lockfree." + key + ".per_s", lockfree_flood);
      report.add_metric("flood_speedup_vs_mutex." + key, flood_speedup);
      flood_table.add_row({std::to_string(threads),
                           TextTable::num(mutex_flood / 1e6, 2) + "M/s",
                           TextTable::num(lockfree_flood / 1e6, 2) + "M/s",
                           TextTable::num(flood_speedup, 2) + "x"});
    }
  }

  spawn_table.render(std::cout);
  report.add_table(spawn_table);
  std::cout << "(every mutexed transition pays lock/unlock plus cache-line "
               "ping-pong on the lock word; the Chase-Lev owner path is one "
               "release store)\n\n";
  fork_table.render(std::cout);
  report.add_table(fork_table);
  std::cout << "(fork/join leans on the owner LIFO fast path, so the gap "
               "widens with nesting depth)\n\n";
  flood_table.render(std::cout);
  report.add_table(flood_table);
  std::cout << "(all tasks land in one worker's deque; peers batch-steal up "
               "to half the backlog per sweep — see docs/scheduler.md, 'Why "
               "steal-half is a loop, not one CAS')\n";

  std::cout << "\n";
  for (const int period_us : {50, 200}) {
    const double cpu = idle_handoff_cpu_us_per_task(period_us);
    report.add_metric("idle_handoff.lockfree.every" +
                          std::to_string(period_us) + "us.cpu_per_task.us",
                      cpu);
    handoff_table.add_row({std::to_string(period_us) + " us",
                           TextTable::num(cpu, 1) + " us"});
  }
  handoff_table.render(std::cout);
  report.add_table(handoff_table);
  std::cout << "(the task itself is ~3 us; the rest is spinning before a "
               "park and the wake that follows — see docs/scheduler.md, "
               "'Idle workers')\n";

  report.write_if_requested();
  return 0;
}
