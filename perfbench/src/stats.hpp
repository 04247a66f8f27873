// Arithmetic of the serving-stack benchmark: percentiles with their sample
// counts, quartile spread, ratios that carry their base, the goodput
// ladder staircase, and self-time subtraction. Pure functions, so
// tests/arith_test.cpp can pin each one down without running a cluster.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile and the sample count behind it. `beyond` is the number of
/// samples strictly above the chosen rank: a percentile is only reported
/// as measured when at least kMinBeyond samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.beyond = n - rank;
  return out;
}

/// True when the q-th percentile of n samples has kMinBeyond samples above it.
inline bool percentile_supported(std::size_t n, double q) {
  if (n == 0) return false;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank >= kMinBeyond;
}

/// Median and quartiles, computed like Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spread printed here matches the one a harness computes.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile distance as a share of the median.
  [[nodiscard]] double iqr_share() const {
    return median != 0.0 ? (q3 - q1) / std::abs(median) : 0.0;
  }
};

inline Spread spread(std::vector<double> values) {
  Spread out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  if (n == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  auto cut = [&](int i) {  // i-th of the three cut points, 1-based
    const double m = static_cast<double>(n + 1) * i / 4.0;
    auto j = static_cast<std::size_t>(std::floor(m));
    const double delta = m - static_cast<double>(j);
    j = std::clamp<std::size_t>(j, 1, n - 1);
    return values[j - 1] + (values[j] - values[j - 1]) * delta;
  };
  out.q1 = cut(1);
  out.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  out.q3 = cut(3);
  return out;
}

inline double median(std::vector<double> values) { return spread(std::move(values)).median; }

/// Mean of the values within `band` of their median (the median itself
/// when none is). Outliers on one side, fewer than half the values, leave
/// it where the rest sit.
inline double central_mean(const std::vector<double>& values, double band) {
  if (values.empty()) return 0.0;
  const double m = median(values);
  double sum = 0.0;
  std::size_t n = 0;
  for (double v : values) {
    if (std::abs(v - m) <= band) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : m;
}

/// A per-unit ratio that keeps its base, so every printed ratio can say
/// what it was divided by (ops, commits).
struct Ratio {
  double amount = 0.0;
  double base = 0.0;
  [[nodiscard]] double value() const { return base > 0.0 ? amount / base : 0.0; }
};

/// The fixed ladder of offered rates: rung i is base * 2^(i / per_octave).
/// A fractional rung (the staircase's mean) lies between two rungs.
inline double ladder_rate(double base, int per_octave, double rung) {
  return base * std::exp2(rung / per_octave);
}

/// Goodput search over `rungs` ladder rates, for a stack whose point at a
/// fixed rate passes or fails at random near its knee. An approach climbs
/// every `coarse`-th rung from rung 0 until the first failing point. A
/// staircase then starts one rung below that failure and, for `points`
/// probes while `more()` holds, moves one rung up after each passing point
/// and one rung down after each failing one, clamped to the ladder. It
/// settles around the rung where a point passes half the time; `estimate`
/// is the central_mean (within `band` rungs of their median) of the rungs
/// of the staircase's probes after its first `skip` (the walk from a chance
/// early failure), or the highest passing approach rung when `more()` ended
/// the search before that. The band leaves out a walk down and back that
/// fewer than half the probes made. found() is false when no probe passed.
/// Every probe (one try each) is in `probed`, in order.
struct Staircase {
  std::vector<std::pair<std::size_t, bool>> probed;
  std::size_t approach = 0;  // probes made before the staircase
  double estimate = -1.0;
  [[nodiscard]] bool found() const { return estimate >= 0.0; }
};

inline Staircase staircase(std::size_t rungs, std::size_t coarse, std::size_t points,
                           std::size_t skip, const std::function<bool(std::size_t)>& passes,
                           const std::function<bool()>& more = [] { return true; },
                           double band = std::numeric_limits<double>::infinity()) {
  Staircase out;
  if (rungs == 0 || coarse == 0) return out;
  bool any_passed = false;
  auto probe = [&](std::size_t rung) {
    const bool ok = passes(rung);
    out.probed.emplace_back(rung, ok);
    any_passed = any_passed || ok;
    return ok;
  };
  std::size_t rung = 0;
  while (probe(rung) && rung + coarse < rungs) rung += coarse;
  out.approach = out.probed.size();
  const double approach_best = out.probed.back().second ? static_cast<double>(rung)
                               : rung >= coarse        ? static_cast<double>(rung - coarse)
                                                       : -1.0;
  if (!out.probed.back().second && rung > 0) --rung;
  std::vector<double> visits;
  for (std::size_t n = 0; n < points && more(); ++n) {
    if (n >= skip) visits.push_back(static_cast<double>(rung));
    if (probe(rung)) {
      if (rung + 1 < rungs) ++rung;
    } else if (rung > 0) {
      --rung;
    }
  }
  if (any_passed) out.estimate = visits.empty() ? approach_best : central_mean(visits, band);
  return out;
}

/// Time interval [start, end) in microseconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its duration minus the part of it that the
/// children cover (overlapping children counted once, parts outside the
/// parent ignored).
inline double self_time(Interval parent, std::vector<Interval> children) {
  const double duration = std::max(0.0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double cursor = parent.start;
  for (const Interval& child : children) {
    const double lo = std::max(child.start, cursor);
    const double hi = std::min(child.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return duration - covered;
}

}  // namespace perfbench
