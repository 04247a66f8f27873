// Tests for the benchmark's own arithmetic: percentile sample counts,
// quartile spread, ratio bases, the ladder staircase and its p99 limit
// test, and self-time subtraction (bench-side and along the library's
// critical path).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankAndSamplesBeyond) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = percentile(one_to(9), 0.50);
  EXPECT_EQ(p50.value, 5.0);
  EXPECT_EQ(p50.beyond, 4u);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Percentile, SupportedNeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(1000, 0.99));   // 10 beyond
  EXPECT_FALSE(percentile_supported(999, 0.99));   // 9 beyond
  EXPECT_TRUE(percentile_supported(20, 0.50));
  EXPECT_FALSE(percentile_supported(0, 0.50));
}

TEST(Spread, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Spread s = spread(one_to(10));
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_DOUBLE_EQ(s.iqr_share(), 5.5 / 5.5);
  // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
  const Spread t = spread({4, 100, 1, 3, 2});
  EXPECT_DOUBLE_EQ(t.q1, 1.5);
  EXPECT_DOUBLE_EQ(t.median, 3.0);
  EXPECT_DOUBLE_EQ(t.q3, 52.0);
}

TEST(Ratio, KeepsItsBaseAndIsZeroWithoutOne) {
  const Ratio r{300.0, 100.0};
  EXPECT_DOUBLE_EQ(r.value(), 3.0);
  EXPECT_DOUBLE_EQ(r.base, 100.0);
  EXPECT_DOUBLE_EQ((Ratio{5.0, 0.0}).value(), 0.0);
}

TEST(Ladder, RatesDoublePerOctave) {
  EXPECT_DOUBLE_EQ(ladder_rate(1000.0, 12, 0), 1000.0);
  EXPECT_DOUBLE_EQ(ladder_rate(1000.0, 12, 12), 2000.0);
  EXPECT_NEAR(ladder_rate(1000.0, 12, 4), 1259.92, 0.01);
  EXPECT_NEAR(ladder_rate(1000.0, 12, 6.0), 1414.21, 0.01);  // a staircase mean
}

using Probes = std::vector<std::pair<std::size_t, bool>>;

TEST(Staircase, ApproachesCoarselyThenStepsAroundTheKnee) {
  // Capacity between rungs 9 and 10: approach 0,4,8,12(fail), then the
  // staircase starts at 11 and moves down on a fail, up on a pass.
  const Staircase out = staircase(40, 4, 6, 0, [](std::size_t r) { return r <= 9; });
  ASSERT_TRUE(out.found());
  EXPECT_EQ(out.approach, 4u);
  const Probes expected = {{0, true},   {4, true},  {8, true}, {12, false}, {11, false},
                           {10, false}, {9, true},  {10, false}, {9, true}, {10, false}};
  EXPECT_EQ(out.probed, expected);
  EXPECT_DOUBLE_EQ(out.estimate, (11 + 10 + 9 + 10 + 9 + 10) / 6.0);
  // Skipping the first two staircase points leaves the walk around the knee.
  EXPECT_DOUBLE_EQ(staircase(40, 4, 6, 2, [](std::size_t r) { return r <= 9; }).estimate,
                   (9 + 10 + 9 + 10) / 4.0);
}

TEST(Staircase, OneTryPerPointAndAFailureAlwaysStepsDown) {
  // A one-off failure at rung 5 is not retried: the staircase steps down
  // to 4, then climbs again.
  int calls_at_5 = 0;
  const Staircase out = staircase(40, 4, 4, 0, [&](std::size_t r) {
    if (r == 5) return ++calls_at_5 > 1;
    return r <= 6;
  });
  const Probes expected = {{0, true}, {4, true},  {8, false}, {7, false},
                           {6, true}, {7, false}, {6, true}};
  EXPECT_EQ(out.probed, expected);
  EXPECT_EQ(calls_at_5, 0);
  const Staircase noisy = staircase(40, 1, 3, 0, [&](std::size_t r) {
    if (r == 5) return ++calls_at_5 > 1;
    return r <= 6;
  });
  // approach 0..4 pass, 5 fails once: staircase 4+, 5+, 6+.
  EXPECT_EQ(noisy.approach, 6u);
  EXPECT_EQ(noisy.probed.back(), (std::pair<std::size_t, bool>{6, true}));
  EXPECT_DOUBLE_EQ(noisy.estimate, 5.0);
}

TEST(Staircase, ClampsToTheLadderAndStopsWhenToldTo) {
  EXPECT_FALSE(staircase(40, 4, 5, 0, [](std::size_t) { return false; }).found());
  // Everything passes: the approach stops at the top coarse rung (8 of 10)
  // and the staircase climbs to rung 9 and stays there.
  const Staircase top = staircase(10, 4, 3, 0, [](std::size_t) { return true; });
  EXPECT_EQ(top.approach, 3u);
  EXPECT_DOUBLE_EQ(top.estimate, (8 + 9 + 9) / 3.0);
  int budget = 2;
  const Staircase cut =
      staircase(40, 4, 10, 0, [](std::size_t r) { return r <= 9; }, [&] { return budget-- > 0; });
  EXPECT_EQ(cut.probed.size(), cut.approach + 2);
  // Out of time before the staircase: the highest passing approach rung.
  const Staircase none =
      staircase(40, 4, 10, 0, [](std::size_t r) { return r <= 9; }, [] { return false; });
  EXPECT_EQ(none.probed.size(), 4u);  // 0, 4, 8, 12
  EXPECT_DOUBLE_EQ(none.estimate, 8.0);
}

TEST(Staircase, CentralMeanLeavesOutAWalkDownAndBack) {
  EXPECT_DOUBLE_EQ(central_mean({}, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(central_mean({10, 12, 14}, 1.0), 12.0);  // only the median is near
  EXPECT_DOUBLE_EQ(central_mean({0, 1, 2, 12, 13, 13, 14, 14}, 4.0), (12 + 13 + 13 + 14 + 14) / 5.0);
  EXPECT_DOUBLE_EQ(central_mean({9, 10, 11}, 100.0), 10.0);  // a wide band is the mean
  // Capacity between rungs 9 and 10, but points 3..8 of the staircase all
  // fail (a stall elsewhere): it walks down to 4 and back. With a 3-rung
  // band around the median (9) the estimate leaves out rungs 5, 4, 5.
  auto run = [](double band) {
    int point = 0;
    return staircase(
        40, 4, 24, 0,
        [&](std::size_t r) {
          const int n = point++ - 4;  // after the approach's 4 probes
          return !(n >= 3 && n <= 8) && r <= 9;
        },
        [] { return true; }, band);
  };
  const Staircase wide = run(std::numeric_limits<double>::infinity());
  const Staircase banded = run(3.0);
  // Staircase rungs: 11 10 9 10 9 8 7 6 5 4 5 6 7 8 9 10, then 9 10 x4.
  EXPECT_EQ(banded.probed, wide.probed);
  EXPECT_DOUBLE_EQ(wide.estimate, 200.0 / 24.0);
  EXPECT_DOUBLE_EQ(banded.estimate, 186.0 / 21.0);
}

TEST(Limit, BucketEdgeCeilingIsAnExactP99Test) {
  // LoadGen keeps latency in power-of-two buckets. For a limit on a bucket
  // edge 2^k, "the bucket holding p99 ends at or below 2^k" must be exactly
  // "the nearest-rank p99 is below 2^k", edge values included.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    pdc::obs::Histogram histogram;
    std::vector<double> values;
    const std::uint64_t scale = std::uint64_t{1} << (12 + trial % 4);
    for (int i = 0; i < 100 + trial; ++i) {
      std::uint64_t v = rng() % scale;
      if (rng() % 8 == 0) v = scale / 2 - rng() % 2;  // 2^k and 2^k - 1
      histogram.record(v);
      values.push_back(static_cast<double>(v));
    }
    const double p99 = percentile(values, 0.99).value;
    const double ceiling = histogram.snapshot().quantile_upper(0.99);
    for (const double limit : {4096.0, 8192.0, 16384.0}) {
      EXPECT_EQ(ceiling <= limit, p99 < limit) << "trial " << trial << " limit " << limit;
    }
  }
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  EXPECT_DOUBLE_EQ(self_time({0, 100}, {}), 100.0);
  EXPECT_DOUBLE_EQ(self_time({0, 100}, {{10, 30}, {50, 60}}), 70.0);
  EXPECT_DOUBLE_EQ(self_time({0, 100}, {{10, 40}, {30, 60}}), 50.0);   // overlap once
  EXPECT_DOUBLE_EQ(self_time({0, 100}, {{-20, 10}, {90, 130}}), 80.0); // clipped
  EXPECT_DOUBLE_EQ(self_time({0, 100}, {{20, 30}, {22, 25}}), 90.0);   // nested
}

TEST(SelfTime, CriticalPathSelfTimesSumToTheRoot) {
  // request [0,100] -> server.drain [10,90] -> raft.replicate [20,70],
  // with client.queue [0,5] ahead of the drain.
  pdc::obs::TraceSummary trace;
  trace.trace_id = 1;
  trace.root_us = 100;
  trace.spans = {{1, 0, 0, 100, false, "request"},
                 {2, 1, 0, 5, false, "client.queue"},
                 {3, 1, 10, 90, false, "server.drain"},
                 {4, 3, 20, 70, false, "raft.replicate"}};
  std::map<std::string, std::uint64_t> self;
  std::uint64_t sum = 0;
  for (const auto& hop : pdc::obs::critical_path(trace)) {
    self[hop.name] += hop.self_us;
    sum += hop.self_us;
  }
  EXPECT_EQ(sum, trace.root_us);
  EXPECT_EQ(self["raft.replicate"], 50u);
  EXPECT_EQ(self["server.drain"], 30u);
}

}  // namespace
}  // namespace perfbench
