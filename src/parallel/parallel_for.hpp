// OpenMP-style worksharing loops over a ThreadPool.
//
// Supports the three canonical schedules (static, dynamic, guided) so their
// load-balance/overhead trade-off can be taught and measured
// (bench/lab_lau_multicore). The calling thread participates as one of the
// runners, so a pool of size 1 still executes correctly; a caller on one
// of the pool's own workers helps run tasks while it joins, so nested
// loops on the same pool never deadlock.
//
// Runner tasks ride the pool's lock-free scheduling path (parallel::Task +
// per-worker deques, docs/scheduler.md): each runner closure fits Task's
// inline storage, so launching a loop allocates nothing per runner beyond
// the shared control block.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <vector>

#include "concurrency/barrier.hpp"
#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace pdc::parallel {

enum class Schedule {
  kStatic,   // chunks dealt round-robin up front; zero scheduling overhead
  kDynamic,  // chunks taken from a shared counter; balances irregular work
  kGuided,   // dynamic with geometrically shrinking chunks
};

const char* to_string(Schedule s);

struct ForOptions {
  Schedule schedule = Schedule::kStatic;
  /// Chunk size; 0 picks a default (n/runners for static, 1 for dynamic,
  /// minimum grab for guided).
  std::size_t chunk = 0;
  /// Cap on participating runners; 0 means pool size + the calling thread.
  std::size_t max_runners = 0;
};

namespace detail {

/// Shared loop state for one parallel_for invocation.
struct LoopControl {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t runners = 1;
  Schedule schedule = Schedule::kStatic;

  std::mutex error_mutex;
  std::exception_ptr first_error;

  /// Claims [lo, hi) for the caller; false when the iteration space is
  /// exhausted.
  bool claim(std::size_t& lo, std::size_t& hi) {
    if (schedule == Schedule::kGuided) {
      // Grab remaining/(2*runners), never below `chunk`.
      for (;;) {
        const std::size_t current = next.load(std::memory_order_relaxed);
        if (current >= end) return false;
        const std::size_t remaining = end - current;
        std::size_t grab = remaining / (2 * runners);
        if (grab < chunk) grab = chunk;
        if (grab > remaining) grab = remaining;
        std::size_t expected = current;
        if (next.compare_exchange_weak(expected, current + grab,
                                       std::memory_order_relaxed)) {
          lo = current;
          hi = current + grab;
          return true;
        }
      }
    }
    const std::size_t start = next.fetch_add(chunk, std::memory_order_relaxed);
    if (start >= end) return false;
    lo = start;
    hi = std::min(start + chunk, end);
    return true;
  }

  void record_error(std::exception_ptr error) {
    std::scoped_lock lock(error_mutex);
    if (!first_error) first_error = error;
  }
};

}  // namespace detail

/// Runs `body(lo, hi)` over disjoint chunks covering [begin, end).
/// Blocks until the whole range is processed; the first exception thrown by
/// any chunk is rethrown in the caller.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         Body&& body, ForOptions opts = {}) {
  if (begin >= end) return;
  const std::size_t n = end - begin;

  std::size_t runners = pool.size() + 1;  // workers + the calling thread
  if (opts.max_runners != 0) runners = std::min(runners, opts.max_runners);
  runners = std::min(runners, n);

  auto control = std::make_shared<detail::LoopControl>();
  control->end = n;
  control->runners = runners;
  control->schedule = opts.schedule;
  switch (opts.schedule) {
    case Schedule::kStatic:
      control->chunk = opts.chunk != 0 ? opts.chunk : (n + runners - 1) / runners;
      break;
    case Schedule::kDynamic:
      control->chunk = opts.chunk != 0 ? opts.chunk : 1;
      break;
    case Schedule::kGuided:
      control->chunk = opts.chunk != 0 ? opts.chunk : 1;
      break;
  }

  auto done = std::make_shared<concurrency::CountdownLatch>(runners);
  auto run = [control, done, begin, &body] {
    std::size_t lo, hi;
    while (control->claim(lo, hi)) {
      try {
        body(begin + lo, begin + hi);
      } catch (...) {
        control->record_error(std::current_exception());
      }
    }
    done->count_down();
  };

  for (std::size_t r = 1; r < runners; ++r) {
    // A refused post (pool shut down) is a runner that never starts; the
    // caller's own runner covers its chunks.
    if (!pool.post(run).is_ok()) done->count_down();
  }
  run();  // the caller is runner 0
  // All chunks complete. A worker of this pool must help instead of
  // blocking: its runners may sit in its own deque, and with every peer
  // doing the same, nobody would be left to steal them.
  if (pool.inside_worker()) {
    pool.help_while([&done] { return done->try_wait(); });
  } else {
    done->wait();
  }

  if (control->first_error) std::rethrow_exception(control->first_error);
}

/// Per-index form: `body(i)` for every i in [begin, end).
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, ForOptions opts = {}) {
  parallel_for_chunks(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      opts);
}

/// Parallel reduction: combines `map(i)` over [begin, end) with `combine`,
/// starting from `identity`. `combine` must be associative; chunk-local
/// accumulation keeps the combine count at one per chunk.
template <typename T, typename Map, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                  T identity, Map&& map, Combine&& combine,
                  ForOptions opts = {}) {
  std::mutex result_mutex;
  T result = identity;
  parallel_for_chunks(
      pool, begin, end,
      [&](std::size_t lo, std::size_t hi) {
        T local = identity;
        for (std::size_t i = lo; i < hi; ++i) local = combine(local, map(i));
        std::scoped_lock lock(result_mutex);
        result = combine(result, local);
      },
      opts);
  return result;
}

/// In-place inclusive scan (prefix op) of `data` with associative `op`.
/// Classic two-phase blocked algorithm: (1) per-block local scans in
/// parallel, (2) serial exclusive scan over block totals, (3) parallel
/// offset add.
template <typename T, typename Op>
void parallel_inclusive_scan(ThreadPool& pool, std::vector<T>& data, Op&& op) {
  const std::size_t n = data.size();
  if (n == 0) return;
  const std::size_t runners = pool.size() + 1;
  const std::size_t blocks = std::min(n, runners * 4);
  const std::size_t block_len = (n + blocks - 1) / blocks;

  std::vector<T> block_total(blocks);
  parallel_for(
      pool, 0, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block_len;
        const std::size_t hi = std::min(lo + block_len, n);
        for (std::size_t i = lo + 1; i < hi; ++i) data[i] = op(data[i - 1], data[i]);
        block_total[b] = data[hi - 1];
      },
      {.schedule = Schedule::kStatic, .chunk = 1});

  // Exclusive scan of block totals (cheap: `blocks` elements, serial).
  T running = block_total[0];
  for (std::size_t b = 1; b < blocks; ++b) {
    const T next = op(running, block_total[b]);
    block_total[b - 1] = running;  // becomes the offset of block b
    running = next;
  }

  parallel_for(
      pool, 1, blocks,
      [&](std::size_t b) {
        const std::size_t lo = b * block_len;
        const std::size_t hi = std::min(lo + block_len, n);
        for (std::size_t i = lo; i < hi; ++i) data[i] = op(block_total[b - 1], data[i]);
      },
      {.schedule = Schedule::kStatic, .chunk = 1});
}

/// Concurrent fan-out: `body(i)` for every i in [0, n), each claimed as
/// its own dynamic chunk, with the caller participating as a runner.
/// Shaped for n independent *blocking* calls (scatter-gather RPC, scrape
/// federation): every runner holds exactly one in-flight call, so with a
/// pool of at least n-1 workers all n calls overlap; with fewer, runners
/// pipeline the remainder as calls complete. First exception rethrown.
template <typename Body>
void fan_out(ThreadPool& pool, std::size_t n, Body&& body) {
  parallel_for(pool, 0, n, body,
               {.schedule = Schedule::kDynamic, .chunk = 1, .max_runners = n});
}

/// Out-of-place map: out[i] = fn(in[i]).
template <typename In, typename Out, typename Fn>
void parallel_transform(ThreadPool& pool, const std::vector<In>& in,
                        std::vector<Out>& out, Fn&& fn, ForOptions opts = {}) {
  out.resize(in.size());
  parallel_for(pool, 0, in.size(), [&](std::size_t i) { out[i] = fn(in[i]); },
               opts);
}

}  // namespace pdc::parallel
