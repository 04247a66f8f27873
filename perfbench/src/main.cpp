// perfbench — the serving stack's benchmark. One run measures one workload:
//
//   perfbench --workload <kv_write|kv_read|raft_log|echo> --seed N
//             --seconds S --trace <0|1> [--host "<fingerprint>"]
//
// --trace 0 sets the stack up several times (setup_s), then walks a
// staircase over the workload's fixed ladder of offered rates, one try per
// point, to the rate at which a point meets its p99 limit with no failed
// request and no growing backlog half the time (goodput_rps). Spread over
// the whole staircase it measures the workload's reference rate in pairs
// of an untraced window (cpu_us_per_op) and a traced one (p50_us from
// exact per-request latencies; p99_us is printed, not gated), and reports
// the medians over the pairs.
// --trace 1 measures the reference rate untraced, then again with a
// SpanCollector running, and reports the per-layer numbers of the traced
// windows plus trace.overhead (traced / untraced mean latency).
//
// Exact latencies: LoadGen's report keeps latency in a histogram with
// power-of-two buckets, which cannot resolve a p50 inside its bucket. A
// traced LoadGen request has a root span from its scheduled send to its
// reply, timed in whole microseconds, so traced windows give p50 exactly.
// The ladder stays untraced and judges p99 from the histogram: each
// LoadGen workload's limit is a bucket edge (2^k us), and "the bucket
// holding p99 ends at or below 2^k" is exactly "p99 < 2^k".
//
// Every reply is checked (see stacks.hpp); any failed check makes the run
// print "correct": false and exit non-zero. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stacks.hpp"
#include "stats.hpp"

using namespace pdc;
using perfbench::clock_us;

namespace {

// ------------------------------------------------------------- workloads

/// A workload's fixed parameters. BENCHMARK.json's `why` lines repeat the
/// latency limit and the reference rate.
struct Spec {
  std::string name;
  double limit_us;          // goodput: p99 under this (a bucket edge for LoadGen)
  double ref_rps;           // p50/p99/cpu are measured at this rate
  double ladder_base_rps;   // rung 0 of the ladder
  std::size_t connections;  // LoadGen connections (unused by raft_log)
  int put_percent;          // kv mix
  std::size_t coarse_step;  // rungs per step of the ladder's approach
};

const Spec kSpecs[] = {
    {"kv_write", 16'384.0, 8'000.0, 16'000.0, 64, 90, 4},
    {"kv_read", 16'384.0, 8'000.0, 16'000.0, 64, 10, 4},
    // Past its knee the Raft log's catch-up can take tens of seconds (one
    // tick replays the backlog 16 entries per round trip), so raft_log
    // approaches one rung at a time and never overshoots by more than 6%.
    {"raft_log", 10'000.0, 10'000.0, 16'000.0, 0, 0, 1},
    // At 64000/s echo's CPU per op followed other load on the host (22 to
    // 30 us across ten runs); at 20000/s it holds within a few percent.
    {"echo", 8'192.0, 20'000.0, 64'000.0, 4096, 0, 4},
};

// The ladder: rung i offers ladder_base * 2^(i/12); the approach steps
// Spec::coarse_step rungs (4 = x1.26), the staircase one (x1.06).
constexpr int kRungsPerOctave = 12;
constexpr std::size_t kRungs = 7 * kRungsPerOctave;
constexpr std::size_t kStaircasePoints = 96;  // one try each
constexpr std::size_t kStaircaseSkip = 12;    // left out of the estimate
/// The estimate keeps the points within this many rungs (x1.26) of their
/// median: a burst of other load on the host walks the staircase down and
/// back, and one such walk would otherwise move the run's value by more
/// than a point's pass or fail near the knee.
constexpr double kStaircaseBand = 4.0;
constexpr double kLadderBudget = 2.75;  // no new ladder point after this many --seconds

constexpr int kSetups = 3;       // set-ups before the first reference pair; each later pair adds one
constexpr double kWarmupS = 0.005;  // set-up offers one request per connection in this
constexpr std::size_t kRefWindows = 12;  // reference pairs (untraced + traced window) per gated run
constexpr std::size_t kPointsPerPair = 8;  // ladder points between two reference pairs
/// A request at the reference rate fails only when still unanswered this
/// long after its window. The rate is far below every workload's knee, so
/// a host stall delays requests (and shows in their latency) but leaves no
/// backlog the stack cannot drain.
constexpr double kRefGraceS = 2.0;
constexpr int kTraceWindows = 6; // untraced and traced windows per traced run
constexpr std::size_t kVerifyRequests = 200;  // client-side reply check
constexpr std::size_t kEchoPayload = 32;

// ------------------------------------------------------------- one point

/// What one load point measured.
struct Point {
  double rate = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;  // answered correctly and in time
  std::uint64_t failed = 0;    // offered - answered
  std::uint64_t received = 0;  // replies (raft_log: applies) timed
  /// What the pass test compares with the limit: the exact p99 where
  /// latencies are exact, else the upper edge of the LoadGen histogram
  /// bucket that holds p99 (p99 is below it).
  double p99_ceiling_us = 0.0;
  double mean_us = 0.0;        // exact: the histogram keeps an exact sum
  /// Exact per-request latencies (scheduled send -> reply or apply), where
  /// known: always on raft_log, on traced windows for the others.
  std::vector<double> latency_us;
  double lag_p99_us = 0.0;     // generator's scheduled -> sent lag
  double cpu_s = 0.0;
  std::uint64_t elections = 0; // raft elections started during the point
};

class Workload {
 public:
  explicit Workload(const Spec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// Offers `rate` for `duration_s`; a request unanswered `grace_s` after
  /// the window fails.
  virtual Point offer(double rate, double duration_s, double grace_s, bool trace) = 0;
  /// Clears any backlog a point left behind before the next one starts.
  virtual void settle() = 0;
  /// Client-side reply check, then replica agreement. Empty = all held.
  virtual std::string verify_and_finish() = 0;
  virtual void set_recording(bool on) = 0;
  [[nodiscard]] virtual std::uint64_t wrong() const = 0;
  /// Raft commits so far (0 where no raft runs).
  [[nodiscard]] virtual std::uint64_t commits() const { return 0; }
  /// Sum of RaftNode::messages_sent() over the ranks.
  [[nodiscard]] virtual std::uint64_t raft_messages() const { return 0; }
  /// Framed request + reply bytes the server handler has seen (0 without a server).
  [[nodiscard]] virtual std::uint64_t framed_bytes() const { return 0; }

  /// Bench-side samples of the traced window, by per-layer metric stem.
  virtual std::map<std::string, std::vector<double>> take_samples() = 0;
  /// {mean, count} of the leader's loop turns timed while recording.
  virtual std::pair<double, std::uint64_t> take_tick_mean() { return {0.0, 0}; }
  /// Handler calls timed on the span clock while recording (kv only).
  virtual std::vector<perfbench::HandlerCall> take_handler_calls() { return {}; }

  [[nodiscard]] const Spec& spec() const { return spec_; }

 protected:
  /// Each set-up draws its own election timers, so the median of a run's
  /// set-ups is not one draw repeated.
  std::uint64_t next_stack_seed() { return seed_ * 1000 + setups_++; }

  const Spec& spec_;
  std::uint64_t seed_;
  std::uint64_t setups_ = 0;
};

/// Raft elections started so far in this process.
std::uint64_t elections() {
  return obs::MetricsRegistry::instance().counter("pdc.raft.elections").total();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// LoadGen point over a net::Server: open-loop, one generator thread, latency
/// from each request's scheduled send.
Point offer_loadgen(net::Network& net, net::Address target, bool leader_routed,
                    int client_host, std::size_t connections, double rate,
                    double duration_s, double grace_s, bool trace,
                    std::function<net::Bytes(std::uint64_t)> request_of,
                    perfbench::Checks& checks) {
  net::LoadGenConfig config;
  config.connections = connections;
  config.requests = static_cast<std::size_t>(rate * duration_s + 0.5);
  config.duration_s = duration_s;
  config.grace_s = grace_s;
  config.drivers = 1;
  config.first_client_host = client_host;
  config.client_hosts = 1;
  config.trace = trace;
  config.request_of = std::move(request_of);
  if (leader_routed) {
    config.route_to_leader = true;
    for (int rank = 0; rank < perfbench::kRanks; ++rank) {
      config.cluster.push_back(net::Address{rank, perfbench::kPort});
    }
    config.probe_request = [] { return net::to_bytes("LEADER?"); };
    config.redirect_of = [](const net::Bytes& reply) -> std::optional<net::Address> {
      if (net::to_string(reply) == "LEADER") return std::nullopt;
      return net::Address{-1, 0};  // no other answer is expected
    };
  }
  const std::uint64_t errors_before = checks.errors.load();
  const std::uint64_t elections_before = elections();
  const double cpu_before = perfbench::cpu_seconds();
  net::LoadGen gen(net, target);
  const net::LoadGenReport report = gen.run(config);
  Point p;
  p.cpu_s = perfbench::cpu_seconds() - cpu_before;
  const std::uint64_t errors = checks.errors.load() - errors_before;
  p.elections = elections() - elections_before;
  p.rate = rate;
  p.offered = config.requests;
  p.answered = report.received >= errors ? report.received - errors : 0;
  p.failed = p.offered - std::min(p.offered, p.answered);
  p.received = report.received;
  p.p99_ceiling_us = report.latency.quantile_upper(0.99);
  p.mean_us = report.latency.mean();
  p.lag_p99_us = report.send_lag_p99_us;
  // Ledger: every offered request was either sent or refused, and every
  // sent one was answered, lost with its connection, or left unanswered.
  if (report.sent > p.offered || report.received + report.closed_early > report.sent) {
    checks.wrong.fetch_add(1);
  }
  return p;
}

// -------------------------------------------------------------------- kv

class KvWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    stack_ = std::make_unique<perfbench::KvStack>(perfbench::KvMix{seed_, spec_.put_percent},
                                                  next_stack_seed());
  }
  void teardown() override {
    wrong_ += stack_->checks.wrong.load();
    stack_.reset();
  }
  Point offer(double rate, double duration_s, double grace_s, bool trace) override {
    const std::uint64_t base = next_seq_;
    next_seq_ += static_cast<std::uint64_t>(rate * duration_s + 1);
    const perfbench::KvMix mix = stack_->mix();
    return offer_loadgen(
        stack_->net(), net::Address{0, perfbench::kPort}, /*leader_routed=*/true,
        perfbench::kRanks, spec_.connections, rate, duration_s, grace_s, trace,
        [mix, base](std::uint64_t seq) { return net::to_bytes(mix.request(base + seq)); },
        stack_->checks);
  }
  void settle() override { stack_->shed_and_drain(); }
  std::string verify_and_finish() override {
    const perfbench::KvMix mix = stack_->mix();
    const std::uint64_t base = std::uint64_t{1} << 40;
    std::string error = perfbench::verify_client_side(
        stack_->net(), perfbench::kRanks + 1, net::Address{stack_->leader(), perfbench::kPort},
        kVerifyRequests,
        [&](std::uint64_t i) { return net::to_bytes(mix.request(base + i)); },
        [&](std::uint64_t i, const net::Bytes&, const net::Bytes& reply) {
          const std::string text = net::to_string(reply);
          if (text == "E timeout") return true;  // failed, not wrong: counted by the handler
          if (mix.is_put(base + i)) return text == "OK";
          if (text == "A") return true;
          if (text.rfind("V v", 0) != 0) return false;
          const std::uint64_t seq = std::strtoull(text.c_str() + 3, nullptr, 10);
          return mix.is_put(seq) && mix.key(seq) == mix.key(base + i);
        });
    const std::string replicas = stack_->finish();
    if (error.empty()) error = replicas;
    return error;
  }
  void set_recording(bool on) override { stack_->recording.store(on); }
  [[nodiscard]] std::uint64_t wrong() const override {
    return wrong_ + (stack_ ? stack_->checks.wrong.load() : 0);
  }
  [[nodiscard]] std::uint64_t commits() const override { return stack_->commits(); }
  [[nodiscard]] std::uint64_t raft_messages() const override {
    std::uint64_t sum = 0;
    for (const auto& m : stack_->raft_msgs) sum += m.load();
    return sum;
  }
  [[nodiscard]] std::uint64_t framed_bytes() const override {
    return stack_->checks.bytes.load();
  }
  std::map<std::string, std::vector<double>> take_samples() override {
    return {{"kv.queue_wait", stack_->queue_wait_us.take()},
            {"kv.put", stack_->put_us.take()},
            {"kv.get", stack_->get_us.take()},
            {"kv.handler_self", stack_->handler_self_us.take()},
            {"obs.tick", stack_->obs_tick_us.take()},
            {"obs.slo_eval", stack_->obs_eval_us.take()}};
  }
  std::pair<double, std::uint64_t> take_tick_mean() override { return stack_->step_us.take(); }
  std::vector<perfbench::HandlerCall> take_handler_calls() override {
    return stack_->take_handler_calls();
  }

 private:
  std::unique_ptr<perfbench::KvStack> stack_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t wrong_ = 0;
};

// ------------------------------------------------------------------ raft

class RaftWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override { stack_ = std::make_unique<perfbench::RaftStack>(next_stack_seed()); }
  void teardown() override {
    wrong_ += stack_->checks.wrong.load();
    stack_.reset();
  }
  Point offer(double rate, double duration_s, double grace_s, bool trace) override {
    const auto requests = static_cast<std::size_t>(rate * duration_s + 0.5);
    const std::uint64_t elections_before = elections();
    perfbench::SubmitRun run = stack_->run(requests, duration_s, grace_s, trace);
    Point p;
    p.elections = elections() - elections_before;
    p.rate = rate;
    p.offered = run.offered;
    p.answered = run.applied_in_time;
    p.failed = p.offered - std::min(p.offered, p.answered);
    p.received = run.latency_us.size();
    p.p99_ceiling_us = perfbench::percentile(run.latency_us, 0.99).value;
    p.mean_us = mean(run.latency_us);
    p.latency_us = std::move(run.latency_us);
    p.lag_p99_us = perfbench::percentile(run.lag_us, 0.99).value;
    p.cpu_s = run.cpu_s;
    return p;
  }
  void settle() override { stack_->drain(); }
  std::string verify_and_finish() override { return stack_->finish(); }
  void set_recording(bool on) override { stack_->recording.store(on); }
  [[nodiscard]] std::uint64_t wrong() const override {
    return wrong_ + (stack_ ? stack_->checks.wrong.load() : 0);
  }
  [[nodiscard]] std::uint64_t commits() const override { return stack_->commits(); }
  [[nodiscard]] std::uint64_t raft_messages() const override {
    std::uint64_t sum = 0;
    for (const auto& m : stack_->raft_msgs) sum += m.load();
    return sum;
  }
  std::map<std::string, std::vector<double>> take_samples() override {
    return {{"raft.submit", stack_->submit_us.take()}};
  }
  std::pair<double, std::uint64_t> take_tick_mean() override { return stack_->tick_us.take(); }

 private:
  std::unique_ptr<perfbench::RaftStack> stack_;
  std::uint64_t wrong_ = 0;
};

// ------------------------------------------------------------------ echo

class EchoWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    stack_ = std::make_unique<perfbench::EchoStack>(seed_, kEchoPayload);
  }
  void teardown() override {
    wrong_ += stack_->checks.wrong.load();
    stack_.reset();
  }
  Point offer(double rate, double duration_s, double grace_s, bool trace) override {
    const std::uint64_t base = next_seq_;
    next_seq_ += static_cast<std::uint64_t>(rate * duration_s + 1);
    const std::uint64_t seed = seed_;
    return offer_loadgen(
        stack_->net(), net::Address{0, perfbench::kPort}, /*leader_routed=*/false, 1,
        spec_.connections, rate, duration_s, grace_s, trace,
        [seed, base](std::uint64_t seq) {
          return perfbench::echo_payload(seed, base + seq, kEchoPayload);
        },
        stack_->checks);
  }
  void settle() override { stack_->drain(); }
  std::string verify_and_finish() override {
    const std::uint64_t seed = seed_;
    const std::uint64_t base = std::uint64_t{1} << 40;
    std::string error = perfbench::verify_client_side(
        stack_->net(), 2, net::Address{0, perfbench::kPort}, kVerifyRequests,
        [&](std::uint64_t i) { return perfbench::echo_payload(seed, base + i, kEchoPayload); },
        [](std::uint64_t, const net::Bytes& request, const net::Bytes& reply) {
          return request == reply;
        });
    const std::string server = stack_->finish();
    return error.empty() ? server : error;
  }
  void set_recording(bool) override {}
  [[nodiscard]] std::uint64_t wrong() const override {
    return wrong_ + (stack_ ? stack_->checks.wrong.load() : 0);
  }
  [[nodiscard]] std::uint64_t framed_bytes() const override {
    return stack_->checks.bytes.load();
  }
  std::map<std::string, std::vector<double>> take_samples() override { return {}; }

 private:
  std::unique_ptr<perfbench::EchoStack> stack_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t wrong_ = 0;
};

std::unique_ptr<Workload> make_workload(const Spec& spec, std::uint64_t seed) {
  if (spec.name == "raft_log") return std::make_unique<RaftWorkload>(spec, seed);
  if (spec.name == "echo") return std::make_unique<EchoWorkload>(spec, seed);
  return std::make_unique<KvWorkload>(spec, seed);
}

// ---------------------------------------------------------------- output

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints one metric line for humans; `note` carries its base or spread.
void print_metric(const Metric& m, const std::string& note = {}) {
  std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

std::string ratio_note(const perfbench::Ratio& r, const char* amount, const char* base) {
  std::ostringstream out;
  out << number(r.amount) << ' ' << amount << " / " << number(r.base) << ' ' << base;
  return out.str();
}

void print_point(const std::string& tag, const Point& p, const Spec& spec, bool passed) {
  std::string exact;
  if (!p.latency_us.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " exact p50 %8.1f p99 %9.1f us (n=%zu)",
                  perfbench::percentile(p.latency_us, 0.50).value,
                  perfbench::percentile(p.latency_us, 0.99).value, p.latency_us.size());
    exact = buf;
  }
  std::printf(
      "  %-9s %9.0f/s offered %7llu answered %7llu failed %5llu p99 <= %8.0f us mean %8.1f us"
      "%s lag p99 %7.1f us elections %llu %s%s\n",
      tag.c_str(), p.rate, static_cast<unsigned long long>(p.offered),
      static_cast<unsigned long long>(p.answered), static_cast<unsigned long long>(p.failed),
      p.p99_ceiling_us, p.mean_us, exact.c_str(), p.lag_p99_us,
      static_cast<unsigned long long>(p.elections), passed ? "pass" : "FAIL",
      p.lag_p99_us > spec.limit_us / 4 ? " [generator-limited]" : "");
  std::fflush(stdout);
}

/// A point passes when no request failed (each was answered correctly
/// before the deadline) and p99 is under the limit. Arrivals are at a
/// constant rate, so a backlog that grows through the window delays every
/// later request by the backlog: the last 1% of requests would exceed the
/// limit unless the growth stayed under it.
bool point_passes(const Point& p, const Spec& spec) {
  return p.failed == 0 && p.p99_ceiling_us <= spec.limit_us;
}

/// A request unanswered this long after its window is far past the limit.
double grace_s(const Spec& spec) { return std::max(0.05, 4.0 * spec.limit_us * 1e-6); }

std::string spread_note(const std::vector<double>& values, const char* what = "windows") {
  const perfbench::Spread s = perfbench::spread(values);
  std::ostringstream out;
  out << "median of " << values.size() << ' ' << what << ", IQR " << number(s.q1) << ".."
      << number(s.q3) << " = " << number(s.iqr_share() * 100.0) << "% of median";
  return out.str();
}

// --------------------------------------------------------------- metrics

/// Registry scrape deltas between two points in time.
struct Scrapes {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  [[nodiscard]] double counter(std::string_view name) const {
    return static_cast<double>(after.counter(name) - before.counter(name));
  }
  /// Bucket-wise difference of a histogram series (flat or labeled).
  std::vector<std::uint64_t> hist(std::string_view name, std::uint64_t& count,
                                                std::uint64_t& sum) const {
    std::vector<std::uint64_t> out;
    count = sum = 0;
    auto find = [&](const obs::MetricsSnapshot& s) { return s.find(name); };
    const obs::MetricSample* a = find(after);
    if (a == nullptr) return out;
    const obs::MetricSample* b = find(before);
    out = a->buckets;
    count = a->count;
    sum = a->sum;
    if (b != nullptr) {
      for (std::size_t i = 0; i < b->buckets.size() && i < out.size(); ++i) out[i] -= b->buckets[i];
      count -= b->count;
      sum -= b->sum;
    }
    return out;
  }
  [[nodiscard]] double hist_quantile(std::string_view name, double q) const {
    std::uint64_t count = 0, sum = 0;
    const auto buckets = hist(name, count, sum);
    return count == 0 ? 0.0 : obs::histogram_quantile(buckets.data(), buckets.size(), count, q);
  }
  [[nodiscard]] double hist_mean(std::string_view name) const {
    std::uint64_t count = 0, sum = 0;
    hist(name, count, sum);
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Critical-path category of a span name, or nullptr when it has none.
const char* cp_metric(const std::string& span) {
  if (span == "client.queue") return "cp.client_queue_us";
  if (span == "server.drain") return "cp.server_drain_us";
  if (span == "raft.replicate") return "cp.raft_replicate_us";
  if (span == "raft.append") return "cp.raft_append_us";
  if (span == "raft.apply") return "cp.raft_apply_us";
  return nullptr;
}

const char* const kCpMetrics[] = {"cp.client_queue_us", "cp.server_drain_us",
                                  "cp.raft_replicate_us", "cp.raft_append_us",
                                  "cp.raft_apply_us"};

/// The ordered per-layer metric table; every name is always printed, at 0
/// where the workload leaves that layer idle.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"loadgen.send_lag_p99_us", "us"}, {"server.drain_p50_us", "us"},
    {"server.drain_p99_us", "us"},     {"server.ready_batch_mean", "count"},
    {"server.shard_batch_mean", "count"}, {"net.bytes_per_op", "B"},
    {"sched.runs_per_op", "count"},    {"sched.stolen_per_op", "count"},
    {"sched.parked_max", "count"},     {"kv.queue_wait_p50_us", "us"},
    {"kv.queue_wait_p99_us", "us"},    {"kv.put_p50_us", "us"},
    {"kv.put_p99_us", "us"},           {"kv.get_p50_us", "us"},
    {"kv.get_p99_us", "us"},           {"kv.retransmits_per_op", "count"},
    {"kv.redirects", "count"},         {"kv.timeouts", "count"},
    {"raft.append_sent_per_commit", "count"}, {"raft.msgs_per_commit", "count"},
    {"raft.append_p50_us", "us"},      {"raft.append_p99_us", "us"},
    {"raft.commit_p50_us", "us"},      {"raft.commit_p99_us", "us"},
    {"raft.submit_us", "us"},          {"raft.tick_us", "us"},
    {"raft.elections", "count"},       {"mp.msgs_per_op", "count"},
    {"mp.bytes_per_op", "B"},          {"obs.tick_p50_us", "us"},
    {"obs.tick_p99_us", "us"},         {"obs.slo_eval_p50_us", "us"},
    {"obs.slo_eval_p99_us", "us"},     {"cp.client_queue_us", "us"},
    {"cp.server_drain_us", "us"},      {"cp.raft_replicate_us", "us"},
    {"cp.raft_append_us", "us"},       {"cp.raft_apply_us", "us"},
    {"trace.overhead", "ratio"},
};

// ------------------------------------------------------------------ runs

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // the first failed correctness check

  void fail(const std::string& what) {
    if (error.empty()) error = what;  // an empty `what` is a check that held
  }
};

/// One set-up: start the stack (cluster, election, server) and, where the
/// workload has connections, open all of them with one request each
/// offered within kWarmupS. Returns the seconds until the last reply.
double timed_setup(Workload& w) {
  const Spec& spec = w.spec();
  const double start = clock_us();
  w.setup();
  if (spec.connections > 0) {
    const Point warm = w.offer(static_cast<double>(spec.connections) / kWarmupS, kWarmupS,
                               kRefGraceS, false);
    const double took = (clock_us() - start) * 1e-6;
    w.settle();
    if (warm.failed > 0) {
      std::printf("  set-up warm-up: %llu of %llu requests failed\n",
                  static_cast<unsigned long long>(warm.failed),
                  static_cast<unsigned long long>(warm.offered));
    }
    return took;
  }
  return (clock_us() - start) * 1e-6;
}

/// A collector with room for every trace of a reference window, so none is
/// evicted and the kept roots are all the requests.
obs::SpanCollectorConfig collector_config(const Spec& spec, double window_s) {
  obs::SpanCollectorConfig config;
  config.keep_slowest = static_cast<std::size_t>(spec.ref_rps * window_s) + 64;
  return config;
}

/// One window at the reference rate, then settle. With a collector the
/// window is traced and the collector runs until the stack has settled, so
/// spans that close after their root (the server's drain span closes after
/// the reply is sent) still join their trace. Where the workload has no
/// exact latencies of its own, the point takes them from the answered
/// requests' root spans, which LoadGen opens at the scheduled send and
/// closes at the reply. The kept traces go to `traces` when given.
Point reference_window(Workload& w, double window_s, obs::SpanCollector* collector,
                       std::vector<obs::TraceSummary>* traces, RunResult& out,
                       const std::string& tag) {
  const Spec& spec = w.spec();
  if (collector != nullptr) collector->start();
  Point p = w.offer(spec.ref_rps, window_s, kRefGraceS, collector != nullptr);
  w.settle();
  if (collector != nullptr) {
    collector->stop();
    std::vector<obs::TraceSummary> kept =
        collector->slowest(collector_config(spec, window_s).keep_slowest);
    if (p.latency_us.empty()) {
      for (const obs::TraceSummary& trace : kept) {
        for (const obs::SpanNode& span : trace.spans) {
          if (span.parent_id != 0) continue;
          if (!span.error) {
            p.latency_us.push_back(static_cast<double>(span.end_us - span.start_us));
          }
          break;
        }
      }
      if (p.latency_us.size() != p.received) {
        out.fail(tag + ": " + std::to_string(p.latency_us.size()) + " answered root spans for " +
                 std::to_string(p.received) + " replies");
      }
    }
    if (traces != nullptr) {
      for (obs::TraceSummary& trace : kept) traces->push_back(std::move(trace));
    }
  }
  print_point(tag, p, spec, point_passes(p, spec));
  out.attempted += p.offered;
  out.failed += p.failed;
  return p;
}

RunResult gated_run(Workload& w, double seconds) {
  const Spec& spec = w.spec();
  const double run_start_us = clock_us();
  RunResult out;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w.teardown();
    setups.push_back(timed_setup(w));
  }

  // Reference rate: pairs of an untraced window (CPU per op) and a traced
  // one (exact latency), so that drift lands on both alike. The pairs are
  // spread over the staircase, so a burst of other load on the host meets
  // a few of them, not the run's median. Each pair after the first runs on
  // a fresh stack, so the windows sample several stacks' thread
  // placements; those set-ups count towards setup_s too.
  const double window_s = seconds / 40.0;
  obs::SpanCollector collector(collector_config(spec, window_s));
  std::vector<double> p50s, p99s, cpus, lags, plain_means, traced_means;
  std::uint64_t ref_offered = 0, ref_failed = 0;
  std::size_t min_samples = ~std::size_t{0};
  auto reference_pair = [&] {
    if (!p50s.empty()) {
      w.teardown();
      setups.push_back(timed_setup(w));
    }
    const std::string i = std::to_string(p50s.size());
    const Point plain = reference_window(w, window_s, nullptr, nullptr, out, "plain " + i);
    // raft_log times every request exactly without tracing; the LoadGen
    // workloads only through root spans.
    const bool trace = plain.latency_us.empty();
    const Point traced = reference_window(w, window_s, trace ? &collector : nullptr, nullptr,
                                          out, (trace ? "traced " : "exact ") + i);
    cpus.push_back(plain.answered > 0 ? plain.cpu_s * 1e6 / static_cast<double>(plain.answered)
                                      : 0.0);
    lags.push_back(plain.lag_p99_us);
    plain_means.push_back(plain.mean_us);
    traced_means.push_back(traced.mean_us);
    p50s.push_back(perfbench::percentile(traced.latency_us, 0.50).value);
    p99s.push_back(perfbench::percentile(traced.latency_us, 0.99).value);
    min_samples = std::min(min_samples, traced.latency_us.size());
    ref_offered += plain.offered + traced.offered;
    ref_failed += plain.failed + traced.failed;
  };
  reference_pair();
  // Ladder: near the knee the stack is metastable, and a stall can tip a
  // point into a collapse well below the rate it usually holds, so a point
  // at a fixed rate passes or fails at random. goodput_rps is the rate a
  // point passes half the time, found by a staircase with one try per
  // point (stats.hpp).
  const double point_s = seconds / 80.0;
  std::printf("ladder: %.2f s per point, deadline +%.2f s, p99 limit %.0f us\n", point_s,
              grace_s(spec), spec.limit_us);
  // The passing points' requests are in the run's attempted/failed. The
  // failing points are the knee the staircase measures, so their requests
  // are counted apart (knee_*).
  std::size_t ladder_probes = 0;
  std::uint64_t knee_points = 0, knee_offered = 0, knee_failed = 0;
  auto passes = [&](std::size_t rung) {
    if (++ladder_probes % kPointsPerPair == 0 && p50s.size() < kRefWindows) reference_pair();
    const double rate = perfbench::ladder_rate(spec.ladder_base_rps, kRungsPerOctave, rung);
    const Point p = w.offer(rate, point_s, grace_s(spec), false);
    const bool ok = point_passes(p, spec);
    print_point("rung " + std::to_string(rung), p, spec, ok);
    if (ok) {
      w.settle();
      out.attempted += p.offered;
      return true;
    }
    ++knee_points;
    knee_offered += p.offered;
    knee_failed += p.failed;
    // Past the knee Raft's message backlog can keep growing after the
    // load stops, so a failed point's stack is replaced, not drained.
    w.teardown();
    w.setup();
    return false;
  };
  // Keep the run bounded even when points keep failing slowly.
  auto in_budget = [&] { return (clock_us() - run_start_us) * 1e-6 < kLadderBudget * seconds; };
  const perfbench::Staircase ladder = perfbench::staircase(
      kRungs, spec.coarse_step, kStaircasePoints, kStaircaseSkip, passes, in_budget,
      kStaircaseBand);
  while (p50s.size() < kRefWindows) reference_pair();  // the staircase ended early
  // No passing point means the stack could not hold even the ladder's
  // lowest rate (seen only while other load starved the whole host). That
  // is a measurement, not a wrong output: the value is rung 0's rate, an
  // upper bound on the goodput, and the run says so.
  const double goodput = perfbench::ladder_rate(spec.ladder_base_rps, kRungsPerOctave,
                                                ladder.found() ? ladder.estimate : 0.0);
  std::vector<double> stair_rungs;
  std::size_t stair_passed = 0;
  std::string probes;
  for (std::size_t i = 0; i < ladder.probed.size(); ++i) {
    const auto& [rung, ok] = ladder.probed[i];
    if (i == ladder.approach) probes += " |";
    if (i == ladder.approach + kStaircaseSkip) probes += " :";
    probes += " " + std::to_string(rung) + (ok ? "+" : "-");
    if (i >= ladder.approach + kStaircaseSkip) {
      stair_rungs.push_back(static_cast<double>(rung));
      stair_passed += ok ? 1 : 0;
    }
  }

  out.fail(w.verify_and_finish());

  out.metrics = {
      {"goodput_rps", goodput, "1/s"},
      {"p50_us", perfbench::median(p50s), "us"},
      {"cpu_us_per_op", perfbench::median(cpus), "us"},
      {"setup_s", perfbench::median(setups), "s"},
  };
  std::printf("end-to-end (%s):\n", spec.name.c_str());
  std::printf("  setup: %zu set-ups, each from start until the leader is elected and every "
              "connection has answered one request\n",
              setups.size());
  std::printf("  reference: %zu pairs of %.2f s windows spread over the ladder; a request "
              "unanswered %.1f s after its window fails\n",
              p50s.size(), window_s, kRefGraceS);
  std::printf("  ladder %s/s * 2^(i/12), rungs probed (+ pass, - fail; | staircase, "
              ": estimate):%s\n",
              number(spec.ladder_base_rps).c_str(), probes.c_str());
  std::printf("  ladder: %zu estimate points, %zu passed; %llu failing points in all, "
              "%llu of their %llu requests failed (not counted in the run's failed)\n",
              stair_rungs.size(), stair_passed, static_cast<unsigned long long>(knee_points),
              static_cast<unsigned long long>(knee_failed),
              static_cast<unsigned long long>(knee_offered));
  if (!ladder.found()) {
    std::printf("  no ladder point passed: goodput_rps is rung 0's rate, above the true value\n");
  }
  print_metric(out.metrics[0], "rate at the staircase's mean rung within " +
                                   number(kStaircaseBand) + " of their median, " +
                                   number(ladder.estimate) + "; rungs " +
                                   spread_note(stair_rungs, "points"));
  const std::string samples_note =
      ", exact, " + std::to_string(min_samples) + "+ requests per window";
  print_metric(out.metrics[1], spread_note(p50s) + samples_note);
  // p99 at the reference rate is reported but not gated: stalls of the
  // busy-polling threads on a shared host move it by more than any bound.
  print_metric({"p99_us", perfbench::median(p99s), "us"},
               spread_note(p99s) + samples_note +
                   (perfbench::percentile_supported(min_samples, 0.99)
                        ? ""
                        : ", fewer than 10 samples beyond in some window") +
                   "; reported, not gated");
  print_metric(out.metrics[2],
               spread_note(cpus) + ", process user+sys CPU per answered op, untraced windows");
  print_metric(out.metrics[3], spread_note(setups, "set-ups"));
  print_metric({"error_rate", ref_offered > 0 ? static_cast<double>(ref_failed) /
                                                    static_cast<double>(ref_offered)
                                              : 0.0,
                "ratio"},
               std::to_string(ref_failed) + " failed / " + std::to_string(ref_offered) +
                   " offered at " + number(spec.ref_rps) + "/s");
  print_metric({"loadgen.send_lag_p99_us", perfbench::median(lags), "us"},
               "validity: a point lagging past limit/4 is generator-limited");
  std::printf("  tracing cost at the reference rate: median mean latency %.1f us traced, %.1f us "
              "untraced (both exact)\n",
              perfbench::median(traced_means), perfbench::median(plain_means));
  return out;
}

/// Lays each KV handler call against the library's server.drain span it
/// ran in. Both sides read obs::now_us(), so the handler's [enter, exit]
/// must lie inside the span's [start, end] with no rounding slack; what
/// the span has beyond the handler is the server's invoke and reply send.
struct HandlerCheck {
  std::size_t matched = 0;
  std::size_t outside = 0;    // handler time not inside its span
  std::size_t unmatched = 0;  // no kept server.drain span with the call's id
  std::vector<double> drain_us, handler_us, server_us;

  /// `traces` and `calls` come from the same traced window: span and trace
  /// ids restart with each collector session.
  void add(const std::vector<obs::TraceSummary>& traces,
           const std::vector<perfbench::HandlerCall>& calls) {
    std::map<std::pair<std::uint64_t, std::uint64_t>, const obs::SpanNode*> drains;
    for (const obs::TraceSummary& trace : traces) {
      for (const obs::SpanNode& span : trace.spans) {
        if (span.name == "server.drain") drains[{trace.trace_id, span.span_id}] = &span;
      }
    }
    for (const perfbench::HandlerCall& call : calls) {
      const auto it = drains.find({call.span.trace_id, call.span.span_id});
      if (it == drains.end()) {
        ++unmatched;
        continue;
      }
      const obs::SpanNode& drain = *it->second;
      ++matched;
      if (call.enter_us < drain.start_us || call.exit_us > drain.end_us) ++outside;
      const double span = static_cast<double>(drain.end_us - drain.start_us);
      const double handler = static_cast<double>(call.exit_us - call.enter_us);
      drain_us.push_back(span);
      handler_us.push_back(handler);
      server_us.push_back(span - handler);
    }
  }
};

RunResult traced_run(Workload& w, double seconds) {
  const Spec& spec = w.spec();
  RunResult out;
  timed_setup(w);  // with its warm-up, as in the gated run
  // The gated run's window length: the collector's cost per late span grows
  // with the traces it holds, so longer windows would cost more per request.
  const double window_s = seconds / 40.0;
  obs::SpanCollector collector(collector_config(spec, window_s));
  // Untraced windows before and after the traced ones, so that drift over
  // the run lands on both sides of trace.overhead.
  std::vector<double> plain_means;
  auto plain_windows = [&](int first) {
    for (int i = first; i < first + kTraceWindows / 2; ++i) {
      plain_means.push_back(
          reference_window(w, window_s, nullptr, nullptr, out, "plain " + std::to_string(i))
              .mean_us);
    }
  };
  plain_windows(0);

  w.take_samples();  // drop anything recorded before the traced windows
  w.take_tick_mean();
  w.take_handler_calls();
  Scrapes scrapes;
  scrapes.before = obs::MetricsRegistry::instance().scrape();
  const std::uint64_t commits_before = w.commits();
  const std::uint64_t msgs_before = w.raft_messages();
  const std::uint64_t bytes_before = w.framed_bytes();
  std::atomic<bool> sampling{true};
  std::int64_t parked_max = 0;
  std::thread sampler([&] {
    obs::Gauge& parked = obs::MetricsRegistry::instance().gauge("pdc.steal.parked_workers");
    while (sampling.load()) {
      parked_max = std::max(parked_max, parked.value());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  w.set_recording(true);
  std::vector<obs::TraceSummary> traces;
  std::vector<double> traced_means, lags;
  std::uint64_t ops = 0, traced_failed = 0;
  HandlerCheck handler;
  for (int i = 0; i < kTraceWindows; ++i) {
    std::vector<obs::TraceSummary> window;
    const Point p =
        reference_window(w, window_s, &collector, &window, out, "traced " + std::to_string(i));
    handler.add(window, w.take_handler_calls());
    for (obs::TraceSummary& trace : window) traces.push_back(std::move(trace));
    traced_means.push_back(p.mean_us);
    lags.push_back(p.lag_p99_us);
    ops += p.answered;
    traced_failed += p.failed;
  }
  w.set_recording(false);
  sampling.store(false);
  sampler.join();
  scrapes.after = obs::MetricsRegistry::instance().scrape();
  const double commits = static_cast<double>(w.commits() - commits_before);
  const double raft_msgs = static_cast<double>(w.raft_messages() - msgs_before);
  auto samples = w.take_samples();
  const auto [tick_mean, ticks] = w.take_tick_mean();
  plain_windows(kTraceWindows / 2);
  out.fail(w.verify_and_finish());

  // Every trace of the traced windows (each window's store holds all of them).
  std::map<std::string, std::vector<double>> cp;  // per-trace self time by category
  std::vector<double> append_spans, replicate_spans, roots;
  std::size_t errored = 0;
  for (const obs::TraceSummary& trace : traces) {
    std::map<std::string, double> self;
    for (const obs::CriticalHop& hop : obs::critical_path(trace)) {
      if (const char* name = cp_metric(hop.name)) self[name] += static_cast<double>(hop.self_us);
    }
    if (trace.error) ++errored;
    for (const char* name : kCpMetrics) cp[name].push_back(self[name]);
    roots.push_back(static_cast<double>(trace.root_us));
    for (const obs::SpanNode& span : trace.spans) {
      const double d = static_cast<double>(span.end_us - span.start_us);
      if (span.name == "raft.append") append_spans.push_back(d);
      if (span.name == "raft.replicate") replicate_spans.push_back(d);
    }
  }

  const double plain_mean = perfbench::median(plain_means);
  const double traced_mean = perfbench::median(traced_means);
  const double dops = static_cast<double>(ops);
  std::map<std::string, double> value;
  std::map<std::string, std::string> note;
  auto ratio = [&](const std::string& name, perfbench::Ratio r, const char* amount,
                   const char* base) {
    value[name] = r.value();
    note[name] = ratio_note(r, amount, base);
  };
  auto pct = [&](const std::string& name, const std::vector<double>& v, double q) {
    const perfbench::Percentile p = perfbench::percentile(v, q);
    value[name] = p.value;
    note[name] = "n=" + std::to_string(p.samples) +
                 (q > 0.5 && !perfbench::percentile_supported(p.samples, q)
                      ? ", fewer than 10 samples beyond"
                      : "");
  };
  value["loadgen.send_lag_p99_us"] = perfbench::median(lags);
  value["server.drain_p50_us"] = scrapes.hist_quantile("pdc.server.drain_us", 0.50);
  value["server.drain_p99_us"] = scrapes.hist_quantile("pdc.server.drain_us", 0.99);
  note["server.drain_p50_us"] = note["server.drain_p99_us"] =
      "pdc.server.drain_us, power-of-two buckets";
  value["server.ready_batch_mean"] = scrapes.hist_mean("pdc.server.ready_batch");
  value["server.shard_batch_mean"] = scrapes.hist_mean("pdc.server.shard_batch");
  ratio("net.bytes_per_op", {static_cast<double>(w.framed_bytes() - bytes_before), dops},
        "framed request + reply bytes", "ops");
  ratio("sched.runs_per_op", {scrapes.counter("pdc.steal.run"), dops}, "task runs", "ops");
  ratio("sched.stolen_per_op", {scrapes.counter("pdc.steal.stolen"), dops}, "steals", "ops");
  value["sched.parked_max"] = static_cast<double>(parked_max);
  pct("kv.queue_wait_p50_us", samples["kv.queue_wait"], 0.50);
  pct("kv.queue_wait_p99_us", samples["kv.queue_wait"], 0.99);
  pct("kv.put_p50_us", samples["kv.put"], 0.50);
  pct("kv.put_p99_us", samples["kv.put"], 0.99);
  pct("kv.get_p50_us", samples["kv.get"], 0.50);
  pct("kv.get_p99_us", samples["kv.get"], 0.99);
  ratio("kv.retransmits_per_op", {scrapes.counter("pdc.kv.retransmits"), dops}, "retransmits",
        "ops");
  value["kv.redirects"] = scrapes.counter("pdc.kv.redirects");
  value["kv.timeouts"] = scrapes.counter("pdc.kv.timeouts");
  ratio("raft.append_sent_per_commit", {scrapes.counter("pdc.raft.append_sent"), commits},
        "AppendEntries", "commits");
  ratio("raft.msgs_per_commit", {raft_msgs, commits}, "raft messages", "commits");
  pct("raft.append_p50_us", append_spans, 0.50);
  pct("raft.append_p99_us", append_spans, 0.99);
  pct("raft.commit_p50_us", replicate_spans, 0.50);
  pct("raft.commit_p99_us", replicate_spans, 0.99);
  value["raft.submit_us"] = mean(samples["raft.submit"]);
  note["raft.submit_us"] = "mean of " + std::to_string(samples["raft.submit"].size()) + " calls";
  value["raft.tick_us"] = tick_mean;
  note["raft.tick_us"] = "mean of " + std::to_string(ticks) +
                         " leader loop turns (RaftNode::tick, or ReplicatedKV::step on kv)";
  value["raft.elections"] = scrapes.counter("pdc.raft.elections");
  ratio("mp.msgs_per_op", {scrapes.counter("pdc.mp.sent"), dops}, "mp messages", "ops");
  ratio("mp.bytes_per_op", {scrapes.counter("pdc.mp.sent_bytes"), dops}, "mp bytes", "ops");
  pct("obs.tick_p50_us", samples["obs.tick"], 0.50);
  pct("obs.tick_p99_us", samples["obs.tick"], 0.99);
  pct("obs.slo_eval_p50_us", samples["obs.slo_eval"], 0.50);
  pct("obs.slo_eval_p99_us", samples["obs.slo_eval"], 0.99);
  for (const char* name : kCpMetrics) pct(name, cp[name], 0.50);
  // LoadGen's untraced latency is a bucketed histogram; its mean is exact.
  value["trace.overhead"] = plain_mean > 0.0 ? traced_mean / plain_mean : 0.0;
  note["trace.overhead"] = "traced mean latency " + number(traced_mean) +
                           " us / untraced mean latency " + number(plain_mean) + " us";

  std::printf("per-layer (%s, traced windows: %llu ops, %.0f commits):\n", spec.name.c_str(),
              static_cast<unsigned long long>(ops), commits);
  for (const auto& [name, unit] : kLayerMetrics) {
    out.metrics.push_back({name, value[name], unit});
    print_metric(out.metrics.back(), note[name]);
  }
  // The critical path splits each root latency into on-path self times;
  // what the cp.* categories leave is client-side request and net time.
  double cp_sum = 0.0;
  for (const char* name : kCpMetrics) cp_sum += value[name];
  std::printf("critical path: %zu traces (%zu with an error span); p50 root %.1f us, sum of "
              "cp.* p50s %.1f us, request/net self %.1f us\n",
              traces.size(), errored, perfbench::median(roots), cp_sum,
              perfbench::median(roots) - cp_sum);
  if (handler.matched + handler.unmatched > 0) {
    std::printf("handler vs server.drain: %zu calls inside their span, %zu outside, %zu "
                "without a kept span; span p50 %.1f us = handler p50 %.1f us + server "
                "invoke/send p50 %.1f us (p99 %.1f us)\n",
                handler.matched - handler.outside, handler.outside, handler.unmatched,
                perfbench::median(handler.drain_us), perfbench::median(handler.handler_us),
                perfbench::median(handler.server_us),
                perfbench::percentile(handler.server_us, 0.99).value);
    std::printf("handler: p50 queue wait %.1f + put %.1f / get %.1f + handler self %.1f us\n",
                value["kv.queue_wait_p50_us"], value["kv.put_p50_us"], value["kv.get_p50_us"],
                perfbench::median(samples["kv.handler_self"]));
    if (handler.outside > 0) {
      out.fail(std::to_string(handler.outside) +
               " handler calls ran outside the server.drain span of their request");
    }
    // A request that failed (unanswered at its window's deadline) can lose
    // spans; every other call must find its own.
    if (handler.unmatched > traced_failed) {
      out.fail(std::to_string(handler.unmatched) + " handler calls have no server.drain span (" +
               std::to_string(traced_failed) + " requests failed)");
    }
  } else if (spec.name.rfind("kv_", 0) == 0) {
    out.fail("no handler call was recorded in the traced windows");
  }
  return out;
}

void print_result(const RunResult& r, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(r.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + r.metrics[i].name + "\": {\"value\": " + number(r.metrics[i].value) +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload <kv_write|kv_read|raft_log|echo> --seed N "
               "--seconds S --trace <0|1> [--host TEXT]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, host;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string arg = argv[i + 1];
    if (flag == "--workload") {
      workload = arg;
    } else if (flag == "--seed") {
      seed = std::strtoull(arg.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(arg.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(arg.c_str());
    } else if (flag == "--host") {
      host = arg;
    } else {
      return usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (s.name == workload) spec = &s;
  }
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();

  std::printf("perfbench %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("host: %s\n", host.empty() ? "unrecorded" : host.c_str());
  std::printf("stack: net latency %.3f ms one-way; mp delivery in-process and immediate; "
              "%d ranks; %zu server workers; 1 LoadGen thread; p99 limit %.0f us; "
              "reference %.0f/s\n",
              perfbench::kNetLatencyMs, perfbench::kRanks, perfbench::kServerWorkers,
              spec->limit_us, spec->ref_rps);

  std::unique_ptr<Workload> w = make_workload(*spec, seed);
  RunResult result;
  try {
    result = trace == 1 ? traced_run(*w, seconds) : gated_run(*w, seconds);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  const std::uint64_t wrong = w->wrong();
  if (wrong > 0 && result.error.empty()) {
    result.error = std::to_string(wrong) + " wrong replies or out-of-order applies";
  }
  w.reset();
  const bool correct = result.error.empty();
  if (!correct) std::printf("CHECK FAILED: %s\n", result.error.c_str());
  print_result(result, correct);
  return correct ? 0 : 1;
}
