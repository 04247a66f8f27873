// The three serving stacks the benchmark drives, each built from the
// library's public API only:
//
//   KvStack    net::Server (event engine) -> handler -> KV thread ->
//              dist::ReplicatedKV -> dist::RaftNode over mp::World, 3 ranks,
//              with the Server only on the leader's host, and the live obs
//              plane (TimeSeriesStore + SloMonitor) beside it.
//   RaftStack  dist::RaftNode over mp::World, 3 ranks, a trivial state
//              machine; the leader's rank thread runs an open-loop submit
//              schedule (the only place more than one write is in flight).
//   EchoStack  net::Server (event engine) with a view_handler echo.
//
// Every stack checks the outputs it sees (replies, apply order, replica
// agreement) and records bench-side timings around the calls it makes
// into each layer while `recording` is on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/replicated_kv.hpp"
#include "mp/world.hpp"
#include "net/framing.hpp"
#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/tsdb.hpp"

namespace perfbench {

namespace dist = pdc::dist;
namespace mp = pdc::mp;
namespace net = pdc::net;
namespace obs = pdc::obs;

/// Steady-clock time in microseconds (fractional).
double clock_us();

/// Process user + system CPU time (getrusage), in seconds.
double cpu_seconds();

/// One-way latency of the simulated net fabric. mp delivery is in-process
/// and immediate, so consensus latency is CPU time only.
inline constexpr double kNetLatencyMs = 0.05;
inline constexpr std::uint16_t kPort = 7000;
inline constexpr int kRanks = 3;

/// Raft election timeouts are drawn from [min, 2 * min]. The library
/// default (12..24 ms) is sized for the simulated clock: on real threads
/// sharing a few cores with the server and the generator, a rank that is
/// descheduled for a few ms misses heartbeats and starts a needless
/// election, which stalls every request in flight. The benchmark deploys
/// the Raft paper's 150..300 ms; heartbeats keep the 3 ms default.
inline constexpr double kElectionTimeoutMinMs = 150.0;

/// The cluster's Raft options: the timeouts above, timer jitter from `seed`.
dist::RaftOptions raft_options(std::uint64_t seed);

/// The live obs plane's cadence, and the scale that shrinks the default
/// SLO rules' burn-rate windows (5 m .. 6 h) to 0.3 s .. 21.6 s.
inline constexpr double kObsPeriodS = 0.010;
inline constexpr double kObsWindowScale = 1e-3;

/// Samples recorded by bench code around calls into one layer.
struct Samples {
  std::mutex mutex;
  std::vector<double> values;
  void add(double v) {
    const std::lock_guard<std::mutex> lock(mutex);
    values.push_back(v);
  }
  std::vector<double> take() {
    const std::lock_guard<std::mutex> lock(mutex);
    return std::exchange(values, {});
  }
};

/// Count and total of a timing taken too often to keep every sample (a
/// rank thread's loop turn): pushing millions of samples into a locked
/// vector would stall the thread it times. Only the mean is reported.
struct Totals {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  void add(double us) {
    count.fetch_add(1, std::memory_order_relaxed);
    total_ns.fetch_add(static_cast<std::uint64_t>(us * 1e3), std::memory_order_relaxed);
  }
  /// {mean in microseconds, count} since the last take().
  std::pair<double, std::uint64_t> take() {
    const std::uint64_t n = count.exchange(0);
    const std::uint64_t total = total_ns.exchange(0);
    return {n > 0 ? static_cast<double>(total) * 1e-3 / static_cast<double>(n) : 0.0, n};
  }
};

/// One KV handler call while `recording` is on, timed on the span clock
/// (obs::now_us) so it can be laid against the server.drain span it ran
/// in: `span` is that span's context (the handler's ambient span).
struct HandlerCall {
  obs::SpanContext span;
  std::uint64_t enter_us = 0;  // handler entry
  std::uint64_t exit_us = 0;   // reply built, handler returning
};

/// Counts of what the bench-side checks saw. `wrong` is a correctness
/// failure; `errors` are failed requests (timeouts, shed at a deadline).
struct Checks {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> wrong{0};
  /// Request + reply payload bytes plus one MessageCodec header each.
  std::atomic<std::uint64_t> bytes{0};
  void count_bytes(std::size_t request, std::size_t reply) {
    bytes.fetch_add(request + reply + 2 * net::MessageCodec::kHeaderBytes,
                    std::memory_order_relaxed);
  }
};

/// The first exception a rank thread caught from the library (a failed
/// PDC_CHECK). The rank keeps looping so the stack can still be torn down;
/// the run reports the fault and fails.
class Fault {
 public:
  void record(int rank, const char* what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (what_.empty()) what_ = "rank " + std::to_string(rank) + ": " + what;
  }
  [[nodiscard]] std::string what() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return what_;
  }

 private:
  mutable std::mutex mutex_;
  std::string what_;
};

// ------------------------------------------------------------------- kv

/// The kv workloads' request mix over 1024 keys: request `seq` is a PUT of
/// value "v<seq>" with probability put_percent/100, else a GET. A GET
/// reply is correct when it is ABSENT or a value some PUT wrote to that
/// key, which the mix can recompute from the value's sequence number.
struct KvMix {
  std::uint64_t seed = 0;
  int put_percent = 90;
  static constexpr std::size_t kKeys = 1024;

  [[nodiscard]] bool is_put(std::uint64_t seq) const;
  [[nodiscard]] std::size_t key(std::uint64_t seq) const;
  [[nodiscard]] std::string request(std::uint64_t seq) const;
};

class KvStack {
 public:
  /// Starts the cluster, waits for a leader, opens the Server on the
  /// leader's host and answers one PUT through it (set-up ends there).
  KvStack(const KvMix& mix, std::uint64_t seed);
  ~KvStack();
  KvStack(const KvStack&) = delete;
  KvStack& operator=(const KvStack&) = delete;

  [[nodiscard]] net::Network& net() { return *net_; }
  [[nodiscard]] int leader() const { return server_rank_; }
  [[nodiscard]] const KvMix& mix() const { return mix_; }
  /// Highest commit index any replica holds.
  [[nodiscard]] std::uint64_t commits() const;

  /// After a point's deadline: answers queued and newly arriving requests
  /// with an error at once until the handlers are idle, then waits until
  /// every replica has caught up.
  void shed_and_drain();

  /// Stops the server, lets every replica catch up and compares their
  /// KvMachine::data(). Returns an empty string when all checks hold.
  std::string finish();

  std::atomic<bool> recording{false};
  Checks checks;
  Fault fault;
  Samples queue_wait_us;   // handler enqueue -> KV thread pick-up
  Samples put_us;          // ReplicatedKV::put
  Samples get_us;          // ReplicatedKV::get
  Samples handler_self_us; // handler time not spent waiting or in the KV call
  Totals step_us;          // ReplicatedKV::step on the serving rank
  Samples obs_tick_us;     // TimeSeriesStore::sample_once
  Samples obs_eval_us;     // SloMonitor::evaluate
  /// Handler calls, in completion order; take_handler_calls() empties it.
  std::vector<HandlerCall> take_handler_calls();
  /// RaftNode::messages_sent() per rank, published by each rank thread.
  std::atomic<std::uint64_t> raft_msgs[kRanks]{};

 private:
  struct Op {
    std::string text;
    obs::SpanContext ctx;
    double enqueued_us = 0.0;
    double picked_us = 0.0;
    double call_us = 0.0;
    std::promise<std::string> reply;
  };
  enum class Phase { kRun, kQuiesce, kStop };

  void start();     // the constructor's steps after the cluster thread
  void shutdown();  // stops every thread the stack started
  net::Bytes handle(const net::Bytes& request);
  void rank_body(mp::Communicator& comm);
  std::string serve(dist::ReplicatedKV& kv, Op& op);
  void obs_loop();

  KvMix mix_;
  std::uint64_t seed_;
  std::unique_ptr<net::Network> net_;
  std::vector<dist::RaftPersistentState> storage_;
  std::int64_t mp_baseline_;  // unreceived mp messages of earlier stacks
  std::atomic<int> leader_{-1};
  int server_rank_ = -1;
  std::atomic<int> serving_{-1};  // rank whose thread serves the handler queue
  std::atomic<Phase> phase_{Phase::kRun};
  std::atomic<bool> shedding_{false};
  std::atomic<int> in_handler_{0};

  std::mutex ops_mutex_;
  std::deque<Op*> ops_;

  std::mutex calls_mutex_;
  std::vector<HandlerCall> calls_;

  std::atomic<std::uint64_t> applied_[kRanks]{};
  std::atomic<std::uint64_t> commit_[kRanks]{};
  std::uint64_t digest_[kRanks]{};
  std::size_t keys_[kRanks]{};

  std::unique_ptr<obs::TimeSeriesStore> tsdb_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::atomic<bool> obs_stop_{false};
  std::thread obs_thread_;

  std::unique_ptr<net::Server> server_;
  std::thread cluster_;  // declared last: joined first
};

// ----------------------------------------------------------------- raft

/// Result of one open-loop submit schedule on the leader.
struct SubmitRun {
  std::uint64_t offered = 0;
  std::uint64_t submitted = 0;
  std::uint64_t applied_in_time = 0;  // applied on the leader before the deadline
  std::vector<double> latency_us;     // scheduled submit -> apply listener
  std::vector<double> lag_us;         // scheduled -> actual submit
  double cpu_s = 0.0;
};

class RaftStack {
 public:
  explicit RaftStack(std::uint64_t seed);
  ~RaftStack();
  RaftStack(const RaftStack&) = delete;
  RaftStack& operator=(const RaftStack&) = delete;

  /// Runs `requests` submits spread evenly over `duration_s` on the
  /// leader; entries not applied within duration_s + grace_s fail.
  SubmitRun run(std::size_t requests, double duration_s, double grace_s, bool trace);

  /// Waits until every submitted entry is applied on the leader.
  void drain();

  /// Lets replicas catch up and compares their state-machine digests.
  std::string finish();

  std::atomic<bool> recording{false};
  Checks checks;
  Fault fault;
  Samples submit_us;  // RaftNode::submit
  Totals tick_us;     // RaftNode::tick on the leader
  std::atomic<std::uint64_t> raft_msgs[kRanks]{};
  [[nodiscard]] std::uint64_t commits() const;

 private:
  struct Job;
  enum class Phase { kRun, kQuiesce, kStop };
  void rank_body(mp::Communicator& comm);

  std::uint64_t seed_;
  std::vector<dist::RaftPersistentState> storage_;
  std::int64_t mp_baseline_;  // unreceived mp messages of earlier stacks
  std::atomic<int> leader_{-1};
  std::atomic<Phase> phase_{Phase::kRun};
  std::atomic<std::uint64_t> applied_[kRanks]{};
  std::atomic<std::uint64_t> commit_[kRanks]{};
  std::atomic<std::uint64_t> last_index_[kRanks]{};
  std::uint64_t digest_[kRanks]{};
  std::uint64_t next_seq_ = 0;  // global command sequence (main thread)

  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  Job* job_ = nullptr;
  bool job_done_ = false;

  std::thread cluster_;
};

// ----------------------------------------------------------------- echo

/// Echo payload for request `seq`: the sequence number, then seeded bytes.
net::Bytes echo_payload(std::uint64_t seed, std::uint64_t seq, std::size_t size);

class EchoStack {
 public:
  EchoStack(std::uint64_t seed, std::size_t payload_bytes);
  ~EchoStack();
  EchoStack(const EchoStack&) = delete;
  EchoStack& operator=(const EchoStack&) = delete;

  [[nodiscard]] net::Network& net() { return *net_; }
  /// Waits until the server has handled every request that reached it.
  void drain();
  std::string finish();

  Checks checks;

 private:
  std::uint64_t seed_;
  std::size_t payload_bytes_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::Server> server_;
};

/// Server worker threads for the event engine on every stack.
inline constexpr std::size_t kServerWorkers = 2;

/// Sends `count` requests through a blocking net::Client and checks every
/// reply byte for byte against `expect`. Returns an empty string on success.
std::string verify_client_side(net::Network& net, int client_host, net::Address server,
                               std::size_t count,
                               const std::function<net::Bytes(std::uint64_t)>& request,
                               const std::function<bool(std::uint64_t, const net::Bytes&,
                                                        const net::Bytes&)>& reply_ok);

}  // namespace perfbench
