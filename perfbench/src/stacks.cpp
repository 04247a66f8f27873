#include "stacks.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr double kSettleTimeoutS = 10.0;

/// Polls `done` every millisecond until it holds or `timeout_s` passes.
template <typename Pred>
bool wait_for(Pred done, double timeout_s) {
  const double until = clock_us() + timeout_s * 1e6;
  while (!done()) {
    if (clock_us() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Waits until `count()` has not moved for `quiet_ms`.
template <typename Count>
bool wait_quiet(Count count, double quiet_ms, double timeout_s) {
  const double until = clock_us() + timeout_s * 1e6;
  auto last = count();
  double since = clock_us();
  while (clock_us() - since < quiet_ms * 1e3) {
    if (clock_us() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto now = count();
    if (now != last) {
      last = now;
      since = clock_us();
    }
  }
  return true;
}

/// mp messages sent but not yet received, process-wide. A torn-down
/// cluster leaves its undelivered messages in this count for good, so a
/// stack measures against the value it saw when it was built.
std::int64_t mp_unreceived() {
  auto& registry = obs::MetricsRegistry::instance();
  const std::uint64_t received = registry.counter("pdc.mp.received").total();
  const std::uint64_t sent = registry.counter("pdc.mp.sent").total();
  return static_cast<std::int64_t>(sent - received);
}

/// Waits until every replica has applied `target()` and at most a round of
/// heartbeats is in flight on mp, so that the backlog an overloaded point
/// left in the followers' mailboxes cannot spill into the next point.
template <typename Target>
bool wait_caught_up(const std::atomic<std::uint64_t> (&applied)[kRanks], Target target,
                    std::int64_t mp_baseline, double timeout_s) {
  return wait_for(
      [&] {
        const std::uint64_t goal = target();
        for (const auto& a : applied) {
          if (a.load() != goal) return false;
        }
        return goal > 0 && mp_unreceived() - mp_baseline <= 2 * kRanks * kRanks;
      },
      timeout_s);
}

/// Parses "v<seq>"; false when the text is not such a value.
bool parse_value(const std::string& value, std::uint64_t& seq) {
  if (value.size() < 2 || value[0] != 'v') return false;
  seq = 0;
  for (std::size_t i = 1; i < value.size(); ++i) {
    if (value[i] < '0' || value[i] > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(value[i] - '0');
  }
  return true;
}

}  // namespace

dist::RaftOptions raft_options(std::uint64_t seed) {
  dist::RaftOptions options;
  options.election_timeout_min_ms = kElectionTimeoutMinMs;
  options.election_timeout_max_ms = 2 * kElectionTimeoutMinMs;
  options.seed = splitmix(seed);
  return options;
}

double clock_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// ------------------------------------------------------------------- kv

bool KvMix::is_put(std::uint64_t seq) const {
  return splitmix(seed ^ (seq * 0xa24baed4963ee407ull)) % 100 <
         static_cast<std::uint64_t>(put_percent);
}

std::size_t KvMix::key(std::uint64_t seq) const {
  return static_cast<std::size_t>(splitmix(seed + seq * 0x9fb21c651e98df25ull) % kKeys);
}

std::string KvMix::request(std::uint64_t seq) const {
  const std::string key_text = "k" + std::to_string(key(seq));
  return is_put(seq) ? "P " + key_text + " v" + std::to_string(seq) : "G " + key_text;
}

KvStack::KvStack(const KvMix& mix, std::uint64_t seed)
    : mix_(mix), seed_(seed), storage_(kRanks), mp_baseline_(mp_unreceived()) {
  net::NetConfig config;
  config.latency_ms = kNetLatencyMs;
  config.seed = seed;
  net_ = std::make_unique<net::Network>(kRanks + 2, config);
  cluster_ = std::thread([this] {
    mp::World world(kRanks);
    world.run([this](mp::Communicator& comm) { rank_body(comm); });
  });
  try {
    start();
  } catch (...) {
    shutdown();
    throw;
  }
}

void KvStack::start() {
  if (!wait_for([this] { return leader_.load() >= 0; }, 10.0)) {
    throw std::runtime_error("kv: no leader elected within 10 s");
  }
  server_rank_ = leader_.load();
  serving_.store(server_rank_);
  net::ServerConfig server_config;
  server_config.model = net::ThreadingModel::kEventDriven;
  server_config.workers = kServerWorkers;
  server_ = std::make_unique<net::Server>(
      *net_, server_rank_, kPort, [this](const net::Bytes& r) { return handle(r); },
      server_config);
  obs::TsdbConfig tsdb_config;
  tsdb_config.period_seconds = kObsPeriodS;
  tsdb_ = std::make_unique<obs::TimeSeriesStore>(tsdb_config);
  slo_ = std::make_unique<obs::SloMonitor>(tsdb_.get());
  for (auto& rule : dist::ReplicatedKV::default_slo_rules(kObsWindowScale)) {
    slo_->add_rule(std::move(rule));
  }
  for (auto& rule : net::Server::default_slo_rules(kObsWindowScale)) {
    slo_->add_rule(std::move(rule));
  }
  obs_thread_ = std::thread([this] { obs_loop(); });
  // Set-up ends when one PUT has been answered through the server.
  std::uint64_t warm = std::uint64_t{1} << 62;
  while (!mix_.is_put(warm)) ++warm;
  const std::string error = verify_client_side(
      *net_, kRanks + 1, net::Address{server_rank_, kPort}, 1,
      [&](std::uint64_t) { return net::to_bytes(mix_.request(warm)); },
      [](std::uint64_t, const net::Bytes&, const net::Bytes& reply) {
        return net::to_string(reply) == "OK";
      });
  if (!error.empty()) throw std::runtime_error("kv: first PUT failed: " + error);
}

KvStack::~KvStack() { shutdown(); }

void KvStack::shutdown() {
  if (obs_thread_.joinable()) {
    obs_stop_.store(true);
    obs_thread_.join();
  }
  shedding_.store(true);  // answer what is still queued at once
  if (server_) server_->stop();
  phase_.store(Phase::kStop);
  if (cluster_.joinable()) cluster_.join();
}

net::Bytes KvStack::handle(const net::Bytes& request) {
  const std::uint64_t enter_span_us = obs::now_us();
  const double enter = clock_us();
  std::string text = net::to_string(request);
  if (text == "LEADER?") return net::to_bytes("LEADER");
  in_handler_.fetch_add(1);
  checks.calls.fetch_add(1, std::memory_order_relaxed);
  std::string reply;
  Op op;
  if (shedding_.load()) {
    checks.errors.fetch_add(1, std::memory_order_relaxed);
    reply = "E shed";
  } else {
    op.text = std::move(text);
    op.ctx = obs::current_span();
    op.enqueued_us = clock_us();
    auto answered = op.reply.get_future();
    {
      const std::lock_guard<std::mutex> lock(ops_mutex_);
      ops_.push_back(&op);
    }
    reply = answered.get();
  }
  checks.count_bytes(request.size(), reply.size());
  net::Bytes out = net::to_bytes(reply);
  if (recording.load(std::memory_order_relaxed) && op.picked_us > 0.0) {
    const double exit = clock_us();
    queue_wait_us.add(op.picked_us - op.enqueued_us);
    handler_self_us.add(self_time({enter, exit}, {{op.enqueued_us, op.picked_us},
                                                  {op.picked_us, op.picked_us + op.call_us}}));
    const HandlerCall call{op.ctx, enter_span_us, obs::now_us()};
    const std::lock_guard<std::mutex> lock(calls_mutex_);
    calls_.push_back(call);
  }
  in_handler_.fetch_sub(1);
  return out;
}

std::vector<HandlerCall> KvStack::take_handler_calls() {
  const std::lock_guard<std::mutex> lock(calls_mutex_);
  return std::exchange(calls_, {});
}

std::string KvStack::serve(dist::ReplicatedKV& kv, Op& op) {
  op.picked_us = clock_us();
  if (shedding_.load()) {
    checks.errors.fetch_add(1, std::memory_order_relaxed);
    return "E shed";
  }
  std::istringstream in(op.text);
  std::string verb, key, value;
  in >> verb >> key;
  const bool put = verb == "P";
  if (put) in >> value;
  if ((!put && verb != "G") || key.empty() || (put && value.empty())) {
    checks.wrong.fetch_add(1);
    return "E bad request";
  }
  // Rejoin the request's trace: the KV client send is stamped with the
  // server's drain span as parent.
  obs::SpanScope scope(op.ctx);
  const double start = clock_us();
  const dist::KvResult result = put ? kv.put(key, value) : kv.get(key);
  op.call_us = clock_us() - start;
  if (recording.load(std::memory_order_relaxed)) (put ? put_us : get_us).add(op.call_us);
  if (result.timed_out()) {
    checks.errors.fetch_add(1, std::memory_order_relaxed);
    return "E timeout";
  }
  if (put) {
    if (result.ok()) return "OK";
    checks.wrong.fetch_add(1);
    return std::string("E ") + dist::to_string(result.status);
  }
  if (result.status == dist::KvResult::Status::kAbsent) return "A";
  std::uint64_t seq = 0;
  if (!result.ok() || !parse_value(result.value, seq) || !mix_.is_put(seq) ||
      "k" + std::to_string(mix_.key(seq)) != key) {
    checks.wrong.fetch_add(1);
  }
  return "V " + result.value;
}

void KvStack::rank_body(mp::Communicator& comm) {
  const int rank = comm.rank();
  const auto r = static_cast<std::size_t>(rank);
  dist::KvConfig config;
  config.raft = raft_options(seed_);
  dist::ReplicatedKV kv(comm, storage_[r], config);
  auto pop = [this]() -> Op* {
    const std::lock_guard<std::mutex> lock(ops_mutex_);
    if (ops_.empty()) return nullptr;
    Op* op = ops_.front();
    ops_.pop_front();
    return op;
  };
  while (phase_.load(std::memory_order_relaxed) != Phase::kStop) {
    if (kv.is_leader()) leader_.store(rank);
    const bool serving = serving_.load(std::memory_order_relaxed) == rank;
    Op* op = serving ? pop() : nullptr;
    try {
      if (op != nullptr) {
        op->reply.set_value(serve(kv, *op));
      } else if (serving && recording.load(std::memory_order_relaxed)) {
        const double start = clock_us();
        kv.step();
        step_us.add(clock_us() - start);
        std::this_thread::yield();
      } else {
        kv.step();
        std::this_thread::yield();
      }
    } catch (const std::exception& e) {
      fault.record(rank, e.what());
      if (op != nullptr) op->reply.set_value("E fault");
    }
    applied_[r].store(kv.raft().last_applied(), std::memory_order_relaxed);
    commit_[r].store(kv.raft().commit_index(), std::memory_order_relaxed);
    raft_msgs[r].store(kv.raft().messages_sent(), std::memory_order_relaxed);
  }
  std::uint64_t digest = kFnvBasis;
  for (const auto& [k, v] : kv.machine().data()) {
    digest = fnv(digest, k.data(), k.size() + 1);
    digest = fnv(digest, v.data(), v.size() + 1);
  }
  digest_[r] = digest;
  keys_[r] = kv.machine().data().size();
}

void KvStack::obs_loop() {
  const auto period = std::chrono::duration<double>(kObsPeriodS);
  auto next = std::chrono::steady_clock::now();
  while (!obs_stop_.load()) {
    const double t0 = clock_us();
    tsdb_->sample_once();
    const double t1 = clock_us();
    slo_->evaluate(obs::now_us());
    const double t2 = clock_us();
    if (recording.load(std::memory_order_relaxed)) {
      obs_tick_us.add(t1 - t0);
      obs_eval_us.add(t2 - t1);
    }
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(period);
    std::this_thread::sleep_until(next);
  }
}

std::uint64_t KvStack::commits() const {
  std::uint64_t commit = 0;
  for (const auto& c : commit_) commit = std::max(commit, c.load());
  return commit;
}

void KvStack::shed_and_drain() {
  shedding_.store(true);
  wait_quiet(
      [this] {
        const std::lock_guard<std::mutex> lock(ops_mutex_);
        return checks.calls.load() + static_cast<std::uint64_t>(in_handler_.load()) +
               ops_.size();
      },
      20.0, 30.0);
  wait_for([this] { return in_handler_.load() == 0; }, 30.0);
  shedding_.store(false);
  wait_caught_up(applied_, [this] { return commits(); }, mp_baseline_, kSettleTimeoutS);
}

std::string KvStack::finish() {
  if (obs_thread_.joinable()) {
    obs_stop_.store(true);
    obs_thread_.join();
  }
  server_->stop();
  phase_.store(Phase::kQuiesce);
  const bool caught_up =
      wait_caught_up(applied_, [this] { return commits(); }, mp_baseline_, kSettleTimeoutS);
  phase_.store(Phase::kStop);
  cluster_.join();
  if (const std::string what = fault.what(); !what.empty()) return what;
  if (!caught_up) return "replicas did not catch up within the settle timeout";
  for (int r = 1; r < kRanks; ++r) {
    if (digest_[r] != digest_[0] || keys_[r] != keys_[0]) {
      return "replica " + std::to_string(r) + " KvMachine::data() differs from replica 0";
    }
  }
  return {};
}

// ----------------------------------------------------------------- raft

namespace {

/// The benchmark-side StateMachine: folds each command into a digest and
/// checks that commands arrive in submission order, each exactly once.
class LogMachine : public dist::StateMachine {
 public:
  explicit LogMachine(Checks& checks) : checks_(checks) {}

  std::vector<std::uint8_t> apply(std::uint64_t index,
                                  const std::vector<std::uint8_t>& command) override {
    std::uint64_t seq = 0;
    if (command.size() < sizeof(seq) || index <= last_index_) {
      checks_.wrong.fetch_add(1);
      return {};
    }
    std::memcpy(&seq, command.data(), sizeof(seq));
    if (applied_ > 0 && seq <= last_seq_) checks_.wrong.fetch_add(1);
    last_index_ = index;
    last_seq_ = seq;
    ++applied_;
    digest_ = fnv(digest_, command.data(), command.size());
    return {};
  }
  std::vector<std::uint8_t> snapshot_image() override {
    std::vector<std::uint8_t> image(4 * sizeof(std::uint64_t));
    const std::uint64_t words[4] = {last_index_, last_seq_, applied_, digest_};
    std::memcpy(image.data(), words, image.size());
    return image;
  }
  void restore(const std::vector<std::uint8_t>& image) override {
    std::uint64_t words[4] = {};
    std::memcpy(words, image.data(), std::min(image.size(), sizeof(words)));
    last_index_ = words[0];
    last_seq_ = words[1];
    applied_ = words[2];
    digest_ = words[3];
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  Checks& checks_;
  std::uint64_t last_index_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t digest_ = kFnvBasis;
};

constexpr std::size_t kCommandBytes = 16;
constexpr std::uint64_t kMaxUnapplied = 1024;

std::vector<std::uint8_t> log_command(std::uint64_t seq) {
  std::vector<std::uint8_t> command(kCommandBytes);
  std::memcpy(command.data(), &seq, sizeof(seq));
  const std::uint64_t tail = splitmix(seq);
  std::memcpy(command.data() + sizeof(seq), &tail, sizeof(tail));
  return command;
}

}  // namespace

struct RaftStack::Job {
  std::vector<double> schedule;  // seconds from start
  std::uint64_t seq_base = 0;
  double deadline_s = 0.0;
  bool trace = false;
  double t0_us = 0.0;
  std::uint64_t t0_obs_us = 0;
  std::vector<double> applied_at;  // per request, < 0 = not yet
  std::vector<obs::ActiveSpan> roots;
  SubmitRun out;
};

RaftStack::RaftStack(std::uint64_t seed)
    : seed_(seed), storage_(kRanks), mp_baseline_(mp_unreceived()) {
  cluster_ = std::thread([this] {
    mp::World world(kRanks);
    world.run([this](mp::Communicator& comm) { rank_body(comm); });
  });
  // Set-up ends when a leader's term-start barrier has committed.
  if (!wait_for(
          [this] {
            const int leader = leader_.load();
            return leader >= 0 && applied_[leader].load() > 0;
          },
          10.0)) {
    phase_.store(Phase::kStop);
    cluster_.join();
    throw std::runtime_error("raft: no leader elected within 10 s");
  }
}

RaftStack::~RaftStack() {
  phase_.store(Phase::kStop);
  job_cv_.notify_all();
  if (cluster_.joinable()) cluster_.join();
}

void RaftStack::rank_body(mp::Communicator& comm) {
  const int rank = comm.rank();
  const auto r = static_cast<std::size_t>(rank);
  LogMachine machine(checks);
  dist::RaftNode node(comm, machine, storage_[r], raft_options(seed_));
  Job* job = nullptr;
  std::uint64_t last_listened = 0;
  node.set_apply_listener([&](std::uint64_t index, std::uint64_t,
                              const std::vector<std::uint8_t>& command,
                              const std::vector<std::uint8_t>&) {
    if (index != last_listened + 1) checks.wrong.fetch_add(1);
    last_listened = index;
    if (job == nullptr || command.size() < sizeof(std::uint64_t)) return;
    std::uint64_t seq = 0;
    std::memcpy(&seq, command.data(), sizeof(seq));
    if (seq < job->seq_base || seq - job->seq_base >= job->schedule.size()) return;
    const std::size_t i = seq - job->seq_base;
    if (job->applied_at[i] >= 0.0) {
      checks.wrong.fetch_add(1);  // applied twice
      return;
    }
    const double now = clock_us();
    job->applied_at[i] = now;
    obs::span_end(job->roots[i]);
    const double scheduled = job->t0_us + job->schedule[i] * 1e6;
    if (now - job->t0_us <= job->deadline_s * 1e6) {
      ++job->out.applied_in_time;
      job->out.latency_us.push_back(now - scheduled);
    }
  });

  auto run_job = [&](Job& j) {
    job = &j;
    const double cpu0 = cpu_seconds();
    j.t0_us = clock_us();
    j.t0_obs_us = obs::now_us();
    const std::size_t n = j.schedule.size();
    std::size_t next = 0;
    for (;;) {
      const double now_s = (clock_us() - j.t0_us) * 1e-6;
      while (next < n && j.schedule[next] <= now_s) {
        const std::uint64_t seq = j.seq_base + next;
        if (j.trace) {
          j.roots[next] = obs::span_root(
              "request", seq + 1,
              j.t0_obs_us + static_cast<std::uint64_t>(j.schedule[next] * 1e6));
        }
        const double start = clock_us();
        // Bounded overload: past kMaxUnapplied entries behind, the request
        // is refused (and fails) instead of deepening the replication
        // backlog, whose catch-up can otherwise outlast the run.
        std::optional<std::uint64_t> index;
        if (node.last_index() - node.last_applied() < kMaxUnapplied) {
          index = node.submit(log_command(seq), j.roots[next].context());
        }
        const double end = clock_us();
        if (recording.load(std::memory_order_relaxed)) submit_us.add(end - start);
        j.out.lag_us.push_back(start - (j.t0_us + j.schedule[next] * 1e6));
        if (index) {
          ++j.out.submitted;
        } else {
          obs::span_end(j.roots[next], /*error=*/true);
        }
        ++next;
      }
      if (next == n && j.out.applied_in_time + (n - j.out.submitted) >= n) break;
      if (now_s > j.deadline_s) break;
      const double start = clock_us();
      node.tick();
      if (recording.load(std::memory_order_relaxed)) tick_us.add(clock_us() - start);
    }
    for (obs::ActiveSpan& root : j.roots) {
      obs::span_end(root, /*error=*/true);  // no-op for ended spans
    }
    j.out.cpu_s = cpu_seconds() - cpu0;
    job = nullptr;
  };

  while (phase_.load(std::memory_order_relaxed) != Phase::kStop) {
    if (node.role() == dist::RaftRole::kLeader) leader_.store(rank);
    Job* pending = nullptr;
    if (leader_.load() == rank) {
      const std::lock_guard<std::mutex> lock(job_mutex_);
      if (job_ != nullptr && !job_done_) pending = job_;
    }
    if (pending != nullptr) {
      try {
        run_job(*pending);
      } catch (const std::exception& e) {
        fault.record(rank, e.what());
        job = nullptr;
      }
      {
        const std::lock_guard<std::mutex> lock(job_mutex_);
        job_done_ = true;
      }
      job_cv_.notify_all();
    } else {
      try {
        node.tick();
      } catch (const std::exception& e) {
        fault.record(rank, e.what());
      }
      std::this_thread::yield();
    }
    applied_[r].store(node.last_applied(), std::memory_order_relaxed);
    commit_[r].store(node.commit_index(), std::memory_order_relaxed);
    last_index_[r].store(node.last_index(), std::memory_order_relaxed);
    raft_msgs[r].store(node.messages_sent(), std::memory_order_relaxed);
  }
  digest_[r] = machine.digest() ^ (machine.applied() * 0x9e3779b97f4a7c15ull);
}

SubmitRun RaftStack::run(std::size_t requests, double duration_s, double grace_s,
                         bool trace) {
  net::LoadGenConfig shape;  // reuse LoadGen's constant-rate arrival schedule
  shape.requests = requests;
  shape.duration_s = duration_s;
  Job job;
  job.schedule = net::LoadGen::arrival_times(shape);
  job.seq_base = next_seq_;
  job.deadline_s = duration_s + grace_s;
  job.trace = trace;
  job.applied_at.assign(requests, -1.0);
  job.roots.resize(requests);
  job.out.offered = requests;
  next_seq_ += requests;
  std::unique_lock<std::mutex> lock(job_mutex_);
  job_ = &job;
  job_done_ = false;
  job_cv_.wait(lock, [this] { return job_done_; });
  job_ = nullptr;
  return std::move(job.out);
}

std::uint64_t RaftStack::commits() const {
  const int leader = leader_.load();
  return leader >= 0 ? commit_[leader].load() : 0;
}

void RaftStack::drain() {
  wait_caught_up(applied_, [this] { return last_index_[leader_.load()].load(); },
                 mp_baseline_, kSettleTimeoutS);
}

std::string RaftStack::finish() {
  phase_.store(Phase::kQuiesce);
  const bool caught_up = wait_caught_up(
      applied_, [this] { return last_index_[leader_.load()].load(); }, mp_baseline_,
      kSettleTimeoutS);
  phase_.store(Phase::kStop);
  cluster_.join();
  if (const std::string what = fault.what(); !what.empty()) return what;
  if (!caught_up) return "replicas did not catch up within the settle timeout";
  for (int r = 1; r < kRanks; ++r) {
    if (digest_[r] != digest_[0]) {
      return "replica " + std::to_string(r) + " applied a different log than replica 0";
    }
  }
  return {};
}

// ----------------------------------------------------------------- echo

net::Bytes echo_payload(std::uint64_t seed, std::uint64_t seq, std::size_t size) {
  net::Bytes out(std::max(size, sizeof(seq)));
  std::memcpy(out.data(), &seq, sizeof(seq));
  std::uint64_t word = splitmix(seed ^ seq);
  for (std::size_t i = sizeof(seq); i < out.size(); ++i) {
    if (i % 8 == 0) word = splitmix(word);
    out[i] = static_cast<std::byte>(word >> (8 * (i % 8)));
  }
  return out;
}

EchoStack::EchoStack(std::uint64_t seed, std::size_t payload_bytes)
    : seed_(seed), payload_bytes_(payload_bytes) {
  net::NetConfig config;
  config.latency_ms = kNetLatencyMs;
  config.seed = seed;
  net_ = std::make_unique<net::Network>(3, config);
  net::ServerConfig server_config;
  server_config.model = net::ThreadingModel::kEventDriven;
  server_config.workers = kServerWorkers;
  server_config.view_handler = [this](net::BytesView request) {
    checks.calls.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seq = 0;
    if (request.size != payload_bytes_) {
      checks.wrong.fetch_add(1);
    } else {
      std::memcpy(&seq, request.data, sizeof(seq));
      const net::Bytes expected = echo_payload(seed_, seq, payload_bytes_);
      if (std::memcmp(expected.data(), request.data, request.size) != 0) {
        checks.wrong.fetch_add(1);
      }
    }
    checks.count_bytes(request.size, request.size);
    return request.to_owned();
  };
  server_ = std::make_unique<net::Server>(
      *net_, 0, kPort, [](const net::Bytes& r) { return r; }, server_config);
  // Set-up ends when one echo has been answered.
  const std::string error = verify_client_side(
      *net_, 2, server_->address(), 1,
      [this](std::uint64_t seq) { return echo_payload(seed_, seq, payload_bytes_); },
      [](std::uint64_t, const net::Bytes& request, const net::Bytes& reply) {
        return request == reply;
      });
  if (!error.empty()) throw std::runtime_error("echo: first request failed: " + error);
}

EchoStack::~EchoStack() {
  if (server_) server_->stop();
}

void EchoStack::drain() {
  wait_quiet([this] { return server_->requests_served(); }, 20.0, 30.0);
}

std::string EchoStack::finish() {
  server_->stop();
  return {};
}

std::string verify_client_side(
    net::Network& net, int client_host, net::Address server, std::size_t count,
    const std::function<net::Bytes(std::uint64_t)>& request,
    const std::function<bool(std::uint64_t, const net::Bytes&, const net::Bytes&)>&
        reply_ok) {
  net::Client client(net, client_host);
  if (!client.connect(server).is_ok()) return "connect failed";
  std::string error;
  for (std::uint64_t i = 0; i < count && error.empty(); ++i) {
    const net::Bytes bytes = request(i);
    auto reply = client.call(bytes);
    if (!reply.is_ok()) {
      error = "request " + std::to_string(i) + " got no reply";
    } else if (!reply_ok(i, bytes, reply.value())) {
      error = "request " + std::to_string(i) + " got a wrong reply: " +
              net::to_string(reply.value()).substr(0, 64);
    }
  }
  client.close();
  return error;
}

}  // namespace perfbench
