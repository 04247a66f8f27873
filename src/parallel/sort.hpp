// Parallel divide-and-conquer sorting on the work-stealing ThreadPool.
//
// CC2020 recommends covering "a parallel divide-and-conquer algorithm";
// mergesort (stable, predictable splits) and quicksort (data-dependent
// splits, exercising the load balancer) are the canonical pair. Both fall
// back to std::sort below `cutoff` — the grain-size lesson.
//
// Posts from inside workers hit the Chase–Lev owner fast path (plain
// push, no CAS), so the recursion's fork cost is a slab-node acquire plus
// one release store; see docs/scheduler.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/check.hpp"

namespace pdc::parallel {

namespace detail {

template <typename T, typename Cmp>
void merge_ranges(std::vector<T>& data, std::vector<T>& scratch,
                  std::size_t lo, std::size_t mid, std::size_t hi, Cmp cmp) {
  std::merge(data.begin() + static_cast<std::ptrdiff_t>(lo),
             data.begin() + static_cast<std::ptrdiff_t>(mid),
             data.begin() + static_cast<std::ptrdiff_t>(mid),
             data.begin() + static_cast<std::ptrdiff_t>(hi),
             scratch.begin() + static_cast<std::ptrdiff_t>(lo), cmp);
  std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
            scratch.begin() + static_cast<std::ptrdiff_t>(hi),
            data.begin() + static_cast<std::ptrdiff_t>(lo));
}

template <typename T, typename Cmp>
void merge_sort_task(ThreadPool& pool, std::vector<T>& data,
                     std::vector<T>& scratch, std::size_t lo, std::size_t hi,
                     std::size_t cutoff, Cmp cmp) {
  if (hi - lo <= cutoff) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(lo),
              data.begin() + static_cast<std::ptrdiff_t>(hi), cmp);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::atomic<bool> left_done{false};
  const auto forked = pool.post([&, lo, mid] {
    merge_sort_task(pool, data, scratch, lo, mid, cutoff, cmp);
    left_done.store(true, std::memory_order_release);
  });
  PDC_CHECK_MSG(forked.is_ok(), "fork on a shut-down pool");
  merge_sort_task(pool, data, scratch, mid, hi, cutoff, cmp);
  // Fork/join: help run other tasks instead of blocking while the sibling
  // subtree finishes.
  pool.help_while([&] { return left_done.load(std::memory_order_acquire); });
  merge_ranges(data, scratch, lo, mid, hi, cmp);
}

/// Median-of-three + Lomuto partition. Returns the final pivot index p with
/// lo <= p < hi; both [lo, p) and (p, hi) are strictly smaller subranges.
template <typename T, typename Cmp>
std::size_t partition_range(std::vector<T>& data, std::size_t lo,
                            std::size_t hi, Cmp cmp) {
  const std::size_t mid = lo + (hi - lo) / 2;
  // Order the three samples, leaving the median at `mid`.
  if (cmp(data[mid], data[lo])) std::swap(data[mid], data[lo]);
  if (cmp(data[hi - 1], data[lo])) std::swap(data[hi - 1], data[lo]);
  if (cmp(data[hi - 1], data[mid])) std::swap(data[hi - 1], data[mid]);
  std::swap(data[mid], data[hi - 1]);  // pivot (median) to the end
  const T& pivot = data[hi - 1];
  std::size_t store = lo;
  for (std::size_t k = lo; k + 1 < hi; ++k) {
    if (cmp(data[k], pivot)) std::swap(data[store++], data[k]);
  }
  std::swap(data[store], data[hi - 1]);
  return store;
}

template <typename T, typename Cmp>
void quick_sort_task(ThreadPool& pool, std::vector<T>& data,
                     std::size_t lo, std::size_t hi, std::size_t cutoff,
                     Cmp cmp) {
  // Fork the smaller side of each partition and keep the larger side in
  // this loop. The forked subproblem is at most half the range, so the
  // task tree stays O(log n) deep, and looping (rather than recursing) on
  // the larger side keeps this frame's stack depth constant — skewed
  // pivots on nearly-sorted input otherwise recurse ~n/cutoff frames deep.
  std::atomic<std::size_t> pending{0};
  while (hi - lo > cutoff) {
    const std::size_t p = partition_range(data, lo, hi, cmp);
    std::size_t spawn_lo = lo, spawn_hi = p, keep_lo = p + 1, keep_hi = hi;
    if (spawn_hi - spawn_lo > keep_hi - keep_lo) {
      std::swap(spawn_lo, keep_lo);
      std::swap(spawn_hi, keep_hi);
    }
    pending.fetch_add(1, std::memory_order_relaxed);
    const auto forked =
        pool.post([&pool, &data, &pending, spawn_lo, spawn_hi, cutoff, cmp] {
          quick_sort_task(pool, data, spawn_lo, spawn_hi, cutoff, cmp);
          pending.fetch_sub(1, std::memory_order_release);
        });
    PDC_CHECK_MSG(forked.is_ok(), "fork on a shut-down pool");
    lo = keep_lo;
    hi = keep_hi;
  }
  std::sort(data.begin() + static_cast<std::ptrdiff_t>(lo),
            data.begin() + static_cast<std::ptrdiff_t>(hi), cmp);
  pool.help_while(
      [&] { return pending.load(std::memory_order_acquire) == 0; });
}

}  // namespace detail

/// Stable-split parallel mergesort. Blocks until sorted.
template <typename T, typename Cmp = std::less<T>>
void parallel_merge_sort(ThreadPool& pool, std::vector<T>& data,
                         std::size_t cutoff = 2048, Cmp cmp = {}) {
  if (data.size() <= 1) return;
  std::vector<T> scratch(data.size());
  detail::merge_sort_task(pool, data, scratch, 0, data.size(),
                          std::max<std::size_t>(cutoff, 1), cmp);
}

/// Parallel quicksort with median-of-three pivoting. Blocks until sorted.
template <typename T, typename Cmp = std::less<T>>
void parallel_quick_sort(ThreadPool& pool, std::vector<T>& data,
                         std::size_t cutoff = 2048, Cmp cmp = {}) {
  if (data.size() <= 1) return;
  detail::quick_sort_task(pool, data, 0, data.size(),
                          std::max<std::size_t>(cutoff, 16), cmp);
}

}  // namespace pdc::parallel
