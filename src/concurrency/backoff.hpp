// Backoff: the spin → yield → park ladder for lock-free wait loops.
//
// A thread that finds no work should not go straight to a kernel park
// (wakeup latency) nor spin forever (burns a core, catastrophic when the
// machine is oversubscribed). The ladder escalates:
//
//   phase 1  spin   — `cpu_relax()` (PAUSE/YIELD) a bounded number of
//                     times; cheapest, keeps the pipeline polite to the
//                     sibling hyperthread;
//   phase 2  yield  — `std::this_thread::yield()`, giving the OS scheduler
//                     a chance to run whoever owns the work;
//   phase 3  park   — `park_ready()` turns true; the caller takes its slow
//                     path (a condition-variable wait).
//
// A zero `yield_limit` makes the ladder spin → park; parallel::ThreadPool
// workers use that, since on an idle host a yield returns at once.
//
// Backoff itself never blocks — parking needs a queue-specific predicate
// and a testkit-instrumented wait, so it stays in the caller (see
// parallel::ThreadPool and docs/scheduler.md for the full ladder).
#pragma once

#include <cstdint>
#include <thread>

namespace pdc::concurrency {

/// Architecture-appropriate spin-loop hint; no-op where unknown.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

class Backoff {
 public:
  /// `spin_limit` steps of cpu_relax, then `yield_limit` steps of OS
  /// yield, then park_ready(). Defaults tuned for short scheduler gaps.
  explicit Backoff(std::uint32_t spin_limit = 32,
                   std::uint32_t yield_limit = 8) noexcept
      : spin_limit_(spin_limit), yield_limit_(yield_limit) {}

  /// One rung of the ladder. Call after each failed attempt.
  void step() noexcept {
    if (steps_ < spin_limit_) {
      cpu_relax();
    } else if (steps_ < spin_limit_ + yield_limit_) {
      std::this_thread::yield();
    }
    if (steps_ < spin_limit_ + yield_limit_) ++steps_;
  }

  /// True once both spin and yield phases are exhausted; the caller should
  /// park (and reset() after waking).
  [[nodiscard]] bool park_ready() const noexcept {
    return steps_ >= spin_limit_ + yield_limit_;
  }

  /// Back to the spin phase. Call after useful work was found.
  void reset() noexcept { steps_ = 0; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t yield_limit_;
  std::uint32_t steps_ = 0;
};

}  // namespace pdc::concurrency
