// Experiment CS-LAU (part 1) — the multicore programming labs of the LAU
// course (paper §IV-A, part 2: thread-level parallelism, scheduling,
// synchronization, profiling/tuning).
//
// google-benchmark over the shared-memory runtime: worksharing schedules
// on uniform vs skewed iteration costs, reduction and scan throughput, and
// the parallel divide-and-conquer sorts. On multi-core hosts the schedule
// comparison shows dynamic/guided absorbing skew; on any host it shows
// their per-chunk overhead.
#include <benchmark/benchmark.h>

#include <numeric>

#include "parallel/parallel_for.hpp"
#include "parallel/sort.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc::parallel;

/// Busy work proportional to `units` (opaque to the optimizer).
void spin_work(std::size_t units) {
  volatile std::uint64_t acc = 0;
  for (std::size_t i = 0; i < units * 20; ++i) acc += i;
}

void BM_ScheduleUniform(benchmark::State& state) {
  const auto schedule = static_cast<Schedule>(state.range(0));
  ThreadPool pool(4);
  for (auto _ : state) {
    parallel_for(pool, 0, 4096, [](std::size_t) { spin_work(1); },
                 {.schedule = schedule});
  }
}

void BM_ScheduleSkewed(benchmark::State& state) {
  // Iteration cost grows with the index: static chunking misassigns the
  // heavy tail to one runner; dynamic/guided rebalance.
  const auto schedule = static_cast<Schedule>(state.range(0));
  ThreadPool pool(4);
  for (auto _ : state) {
    parallel_for(pool, 0, 2048,
                 [](std::size_t i) { spin_work(i / 256); },
                 {.schedule = schedule, .chunk = 16});
  }
}

BENCHMARK(BM_ScheduleUniform)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScheduleSkewed)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ParallelReduce(benchmark::State& state) {
  ThreadPool pool(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 0.0);
  for (auto _ : state) {
    const double sum = parallel_reduce<double>(
        pool, 0, n, 0.0, [&](std::size_t i) { return data[i]; },
        std::plus<double>{});
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelReduce)->Arg(1 << 16)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

void BM_ParallelScan(benchmark::State& state) {
  ThreadPool pool(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<long> data(n, 1);
    state.ResumeTiming();
    parallel_inclusive_scan(pool, data, std::plus<long>{});
    benchmark::DoNotOptimize(data.back());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelScan)->Arg(1 << 16)->Arg(1 << 20)->Unit(benchmark::kMicrosecond);

template <bool kUseMergeSort>
void sort_benchmark(benchmark::State& state) {
  ThreadPool pool(4);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  pdc::support::Rng rng(7);
  std::vector<int> original(n);
  for (auto& x : original) x = static_cast<int>(rng.uniform_int(INT32_MIN, INT32_MAX));
  for (auto _ : state) {
    state.PauseTiming();
    auto data = original;
    state.ResumeTiming();
    if constexpr (kUseMergeSort) {
      parallel_merge_sort(pool, data, 4096);
    } else {
      parallel_quick_sort(pool, data, 4096);
    }
    benchmark::DoNotOptimize(data.front());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ParallelMergeSort(benchmark::State& state) { sort_benchmark<true>(state); }
void BM_ParallelQuickSort(benchmark::State& state) { sort_benchmark<false>(state); }
BENCHMARK(BM_ParallelMergeSort)->Arg(1 << 16)->Arg(1 << 19)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelQuickSort)->Arg(1 << 16)->Arg(1 << 19)->Unit(benchmark::kMillisecond);

void BM_StdSortBaseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  pdc::support::Rng rng(7);
  std::vector<int> original(n);
  for (auto& x : original) x = static_cast<int>(rng.uniform_int(INT32_MIN, INT32_MAX));
  for (auto _ : state) {
    state.PauseTiming();
    auto data = original;
    state.ResumeTiming();
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.front());
  }
}
BENCHMARK(BM_StdSortBaseline)->Arg(1 << 16)->Arg(1 << 19)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
