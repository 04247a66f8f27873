// Tests for the continuous profiling plane (PR 7): worker slots and the
// sampling profiler, the lock-contention observatory, the /profile
// telemetry endpoints, and the aggregator's profile federation + top-k
// views.
//
// The golden test is the subsystem's determinism anchor: a fixed-seed
// SimScheduler run with virtual-clock sampling (run_sim_sampler as one of
// the logical threads) must fold to byte-identical output across runs.
// The stress test races the wall-clock sampler against two live pools —
// under the tsan preset it is the seqlock-slot data-race check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/bounded_queue.hpp"
#include "net/network.hpp"
#include "obs/federation.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "testkit/hooks.hpp"
#include "testkit/sim_scheduler.hpp"

namespace pdc {
namespace {

using obs::MetricsRegistry;
using obs::Profiler;
using obs::WorkerSlot;
using obs::WorkerState;
using testkit::SchedulePolicy;
using testkit::SchedulerOptions;
using testkit::SimScheduler;

net::NetConfig fast_net() {
  net::NetConfig config;
  config.latency_ms = 0.01;
  return config;
}

// ------------------------------------------------------------ slots

TEST(Profile, WordPacksStateAndLabel) {
  const std::uint64_t word = WorkerSlot::pack(WorkerState::kRunning, 42);
  EXPECT_EQ(WorkerSlot::state_of(word), WorkerState::kRunning);
  EXPECT_EQ(WorkerSlot::label_of(word), 42u);
  EXPECT_EQ(WorkerSlot::pack(WorkerState::kIdle, 0), 0u);
}

TEST(Profile, PublishedSlotShowsUpInSamples) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  auto& prof = Profiler::instance();
  prof.reset();
  WorkerSlot* slot = prof.register_worker("test.slot.w0");
  ASSERT_NE(slot, nullptr);
  Profiler::bind_current_thread(slot);
  ASSERT_EQ(Profiler::current_slot(), slot);

  const std::uint32_t label = prof.intern_label("test.phase");
  slot->publish(WorkerState::kRunning, label);
  prof.sample_once();
  slot->publish(WorkerState::kParked);
  prof.sample_once();
  prof.sample_once();

  const std::string folded = prof.folded();
  EXPECT_NE(folded.find("test.slot.w0;running;test.phase 1\n"),
            std::string::npos);
  EXPECT_NE(folded.find("test.slot.w0;parked 2\n"), std::string::npos);
  EXPECT_EQ(prof.samples(), 3u);

  Profiler::bind_current_thread(nullptr);
  prof.release_worker(slot);
  // Released slots are invisible to later samples.
  prof.reset();
  prof.sample_once();
  EXPECT_EQ(prof.folded().find("test.slot.w0"), std::string::npos);
}

TEST(Profile, ProfiledTaskRestoresNestedScopes) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  auto& prof = Profiler::instance();
  WorkerSlot* slot = prof.register_worker("test.nest.w0");
  Profiler::bind_current_thread(slot);
  const std::uint32_t outer = prof.intern_label("outer");
  const std::uint32_t inner = prof.intern_label("inner");
  slot->publish(WorkerState::kIdle);
  {
    obs::ProfiledTask a(outer);
    EXPECT_EQ(WorkerSlot::label_of(slot->word()), outer);
    {
      obs::ProfiledTask b(inner);
      EXPECT_EQ(WorkerSlot::label_of(slot->word()), inner);
    }
    EXPECT_EQ(WorkerSlot::label_of(slot->word()), outer);
    EXPECT_EQ(WorkerSlot::state_of(slot->word()), WorkerState::kRunning);
  }
  EXPECT_EQ(WorkerSlot::state_of(slot->word()), WorkerState::kIdle);
  Profiler::bind_current_thread(nullptr);
  prof.release_worker(slot);
}

// ------------------------------------------------------ folded format

TEST(Profile, FoldedParseRenderRoundTrip) {
  obs::FoldedProfile folded{{"w0;running;task", 7}, {"w1;parked", 3}};
  const std::string text = obs::render_folded(folded);
  EXPECT_EQ(text, "w0;running;task 7\nw1;parked 3\n");
  EXPECT_EQ(obs::parse_folded(text), folded);
  // Malformed lines (an error JSON body, junk counts) parse as empty /
  // get skipped; duplicate keys sum.
  EXPECT_TRUE(obs::parse_folded("{\"error\":\"profiling disabled\"}\n").empty());
  const auto summed = obs::parse_folded("a;b 1\nnonsense\na;b 2\nc x\n");
  ASSERT_EQ(summed.size(), 1u);
  EXPECT_EQ(summed.at("a;b"), 3u);
}

TEST(Profile, TopKByValueOrdersAndTruncates) {
  auto top = obs::top_k_by_value(
      {{"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");   // largest value first
  EXPECT_EQ(top[1].first, "a");   // ties break on key
  EXPECT_EQ(top[2].first, "b");
}

// ---------------------------------------------------- golden (sim)

// A fixed-seed sim round: three logical workers publish phase-labeled
// work at fixed virtual durations while run_sim_sampler samples at 1 ms
// of virtual time. Returns the folded accumulation.
std::string sim_profile_round(std::uint64_t seed) {
  auto& prof = Profiler::instance();
  prof.reset();
  constexpr int kWorkers = 3;
  std::atomic<int> remaining{kWorkers};
  std::vector<std::function<void()>> bodies;
  for (int w = 0; w < kWorkers; ++w) {
    bodies.push_back([w, &remaining, &prof] {
      WorkerSlot* slot = prof.register_worker("sim.w" + std::to_string(w));
      Profiler::bind_current_thread(slot);
      const std::uint32_t compute = prof.intern_label("phase.compute");
      const std::uint32_t exchange = prof.intern_label("phase.exchange");
      for (int round = 0; round < 4; ++round) {
        {
          obs::ProfiledTask task(compute);
          testkit::poll_pause("w.compute", 0.004 * (w + 1));
        }
        {
          obs::ProfiledTask task(exchange);
          testkit::poll_pause("w.exchange", 0.002);
        }
        obs::publish_worker_state(WorkerState::kIdle);
        testkit::poll_pause("w.idle", 0.001);
      }
      Profiler::bind_current_thread(nullptr);
      prof.release_worker(slot);
      remaining.fetch_sub(1);
    });
  }
  bodies.push_back([&remaining, &prof] {
    prof.run_sim_sampler(/*period_seconds=*/0.001,
                         [&] { return remaining.load() == 0; });
  });
  SchedulerOptions options;
  options.policy = SchedulePolicy::kRandom;
  options.seed = seed;
  options.max_steps = 1u << 22;
  SimScheduler scheduler(options);
  const auto report = scheduler.run(std::move(bodies));
  EXPECT_TRUE(report.ok()) << report.error;
  return prof.folded();
}

// Acceptance: virtual-clock sampling under a fixed seed is byte-stable —
// two identical runs fold identically, and the slower workers (longer
// compute phases) accumulate proportionally more running samples.
TEST(Profile, GoldenSimFoldedIsByteStable) {
  const std::string a = sim_profile_round(17);
  const std::string b = sim_profile_round(17);
  EXPECT_EQ(a, b);
  if (!obs::kObsEnabled) {
    EXPECT_TRUE(a.empty());
    return;
  }
  const obs::FoldedProfile folded = obs::parse_folded(a);
  std::uint64_t running[3] = {0, 0, 0};
  for (int w = 0; w < 3; ++w) {
    auto it = folded.find("sim.w" + std::to_string(w) +
                          ";running;phase.compute");
    ASSERT_NE(it, folded.end()) << "w" << w;
    running[w] = it->second;
  }
  // w2's compute phase is 3x w0's in virtual time: the sample counts
  // must reflect that ordering exactly (virtual clock, not noise).
  EXPECT_LT(running[0], running[1]);
  EXPECT_LT(running[1], running[2]);
}

// ------------------------------------------------------- contention

TEST(Profile, ContentionTopKRanksSkewedSitesHotFirst) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  // Two synthetic sites with deliberately skewed wait totals.
  for (int i = 0; i < 8; ++i) {
    PDC_CONTENTION_SITE("test.site.hot").record(1000);
  }
  PDC_CONTENTION_SITE("test.site.cold").record(10);

  const auto stats =
      obs::contention_topk(MetricsRegistry::instance().scrape(), 2);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].site, "test.site.hot");
  EXPECT_EQ(stats[0].count, 8u);
  EXPECT_EQ(stats[0].total_wait_us, 8000u);
  EXPECT_DOUBLE_EQ(stats[0].mean_us, 1000.0);
  EXPECT_EQ(stats[1].site, "test.site.cold");
  // Sites declared in this process resolve to their file:line.
  EXPECT_NE(stats[0].file.find("profile_test.cpp"), std::string::npos);
  EXPECT_GT(stats[0].line, 0);
  ASSERT_TRUE(obs::contention_site_location("test.site.hot").has_value());
  EXPECT_FALSE(obs::contention_site_location("test.site.never").has_value());

  const std::string json = obs::contention_json(stats);
  EXPECT_NE(json.find("\"site\":\"test.site.hot\""), std::string::npos);
  EXPECT_NE(json.find("\"total_wait_us\":8000"), std::string::npos);
}

// A real primitive feeding its site: a capacity-1 queue guarantees the
// producer's second push blocks until the consumer drains one.
TEST(Profile, BoundedQueueBlockFeedsContentionSite) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  MetricsRegistry::instance().reset();
  concurrency::BoundedQueue<int> queue(1);
  std::thread producer([&queue] {
    ASSERT_TRUE(queue.push(1).is_ok());
    ASSERT_TRUE(queue.push(2).is_ok());  // blocks until the pop below
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(queue.pop().is_ok());
  producer.join();
  const auto stats =
      obs::contention_topk(MetricsRegistry::instance().scrape(), 10);
  bool found = false;
  for (const auto& s : stats) {
    if (s.site == "queue.push") {
      found = true;
      EXPECT_GE(s.count, 1u);
    }
  }
  EXPECT_TRUE(found) << obs::contention_json(stats);
}

// ----------------------------------------------------------- stress

// Wall-clock sampler racing a live pool's slot publishes — from external
// posts joined by shutdown() and by wait_idle(); under
// -DPDCKIT_SANITIZE=thread this is the profiling-plane race check.
TEST(Profile, SamplerRacingWorkersStress) {
  auto& prof = Profiler::instance();
  prof.reset();
  prof.start(/*period_us=*/200);
  {
    parallel::ThreadPool pool(2);
    parallel::ThreadPool helped(2);
    std::atomic<int> count{0};
    // Keep both pools busy until the sampler has provably observed them
    // (a fixed task count can finish inside the first sampling period).
    int posted = 0;
    while (obs::kObsEnabled ? prof.samples() < 20 : posted < 2000) {
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(pool.post([&count] { count.fetch_add(1); }).is_ok());
        ASSERT_TRUE(helped.post([&count] { count.fetch_add(1); }).is_ok());
        posted += 2;
      }
      helped.wait_idle();
    }
    pool.shutdown();
    EXPECT_EQ(count.load(), posted);
  }
  prof.stop();
  EXPECT_FALSE(prof.running());
  if (obs::kObsEnabled) {
    // The sampler saw the pool workers (named slots).
    EXPECT_GE(prof.samples(), 20u);
    EXPECT_NE(prof.folded().find("steal.w"), std::string::npos);
  }
  prof.reset();
}

// -------------------------------------------------- endpoints (net)

TEST(Profile, TelemetryProfileEndpoints) {
  auto& prof = Profiler::instance();
  prof.reset();
  WorkerSlot* slot = prof.register_worker("ep.w0");
  Profiler::bind_current_thread(slot);
  if (obs::kObsEnabled) {
    slot->publish(WorkerState::kRunning, Profiler::kTaskLabel);
    prof.sample_once();
    MetricsRegistry::instance().reset();
    PDC_CONTENTION_SITE("test.ep.site").record(500);
  }

  net::Network net(2, fast_net());
  obs::TelemetryServer server(net, 0, 9100);
  obs::TelemetryClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  const std::string folded = client.get("/profile/folded").value();
  const std::string contention =
      client.get("/profile/contention?n=5").value();
  const std::string window =
      client.get("/profile?ms=5&period_us=500").value();
  client.close();

  if (!obs::kObsEnabled) {
    // NOOP builds keep the endpoints but answer a clean error body.
    for (const std::string& body : {folded, contention, window}) {
      EXPECT_NE(body.find("\"error\""), std::string::npos);
      EXPECT_NE(body.find("PDCKIT_OBS_NOOP"), std::string::npos);
    }
  } else {
    EXPECT_NE(folded.find("ep.w0;running;task 1\n"), std::string::npos);
    EXPECT_NE(contention.find("\"site\":\"test.ep.site\""),
              std::string::npos);
    // The collect window saw the still-published running state without
    // touching the global accumulation.
    EXPECT_NE(window.find("ep.w0;running;task"), std::string::npos);
    EXPECT_EQ(prof.samples(), 1u);
  }
  Profiler::bind_current_thread(nullptr);
  prof.release_worker(slot);
  prof.reset();
}

TEST(Telemetry, SubscribeFilterRestrictsSeries) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  registry.counter("flt.keep.a").inc(3);
  registry.counter("flt.drop.b").inc(2);
  net::Network net(2, fast_net());
  obs::TelemetryServer server(net, 0, 9100);
  obs::TelemetryClient client(net, 1);
  ASSERT_TRUE(client.connect(server.address()).is_ok());
  std::vector<std::string> frames;
  ASSERT_TRUE(client
                  .subscribe(/*frames=*/1, /*interval_ms=*/0,
                             [&](const std::string& frame) {
                               frames.push_back(frame);
                             },
                             /*filter=*/"flt.keep.")
                  .is_ok());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_NE(frames[0].find("\"flt.keep.a\":3"), std::string::npos);
  EXPECT_EQ(frames[0].find("flt.drop.b"), std::string::npos);
  // Server self-metrics are filtered out too, not just app series.
  EXPECT_EQ(frames[0].find("pdc."), std::string::npos);
  client.close();
}

// ------------------------------------------------------- federation

TEST(Federation, TopKByValueAndRate) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  obs::MetricsRegistry r0, r1;
  r0.counter("top.a").inc(10);
  r1.counter("top.a").inc(5);
  r0.counter("top.b").inc(3);
  net::Network net(4, fast_net());
  obs::TelemetryConfig c0, c1;
  c0.registry = &r0;
  c1.registry = &r1;
  obs::TelemetryServer s0(net, 0, 9100, c0);
  obs::TelemetryServer s1(net, 1, 9100, c1);
  obs::Aggregator aggregator(
      net, 2, 9200, {{s0.address(), "0"}, {s1.address(), "1"}});
  obs::TelemetryClient client(net, 3);
  ASSERT_TRUE(client.connect(aggregator.address()).is_ok());

  // by=value ranks merged totals: the fleet-wide aggregate (15) first.
  const std::string by_value =
      client.get("/metrics/topk?n=2&by=value").value();
  EXPECT_NE(by_value.find("\"by\":\"value\""), std::string::npos);
  const auto aggregate_pos =
      by_value.find("{\"series\":\"top.a\",\"value\":15}");
  ASSERT_NE(aggregate_pos, std::string::npos) << by_value;
  EXPECT_EQ(by_value.find("top.b"), std::string::npos);  // truncated at 2

  // by=rate diffs against the previous by=rate call: the first call has
  // no baseline yet, so every series is a "rate":null warm-up marker.
  const std::string warm_up = client.get("/metrics/topk?n=10&by=rate").value();
  EXPECT_NE(warm_up.find("{\"series\":\"top.a\",\"rate\":null}"),
            std::string::npos)
      << warm_up;
  EXPECT_EQ(warm_up.find("\"rate\":15"), std::string::npos) << warm_up;
  r0.counter("top.a").inc(7);
  const std::string by_rate =
      client.get("/metrics/topk?n=10&by=rate").value();
  EXPECT_NE(by_rate.find("{\"series\":\"top.a\",\"rate\":7}"),
            std::string::npos)
      << by_rate;
  EXPECT_EQ(by_rate.find("top.b"), std::string::npos);  // idle series

  EXPECT_NE(client.get("/metrics/topk?by=bogus").value().find("error"),
            std::string::npos);
  client.close();
}

TEST(Federation, HotAddAndRemoveTargets) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  obs::MetricsRegistry r0, r1;
  r0.counter("hot.a").inc(1);
  r1.counter("hot.b").inc(2);
  net::Network net(4, fast_net());
  obs::TelemetryConfig c0, c1;
  c0.registry = &r0;
  c1.registry = &r1;
  obs::TelemetryServer s0(net, 0, 9100, c0);
  obs::TelemetryServer s1(net, 1, 9100, c1);
  obs::Aggregator aggregator(net, 2, 9200, {{s0.address(), "0"}});
  obs::TelemetryClient client(net, 3);
  ASSERT_TRUE(client.connect(aggregator.address()).is_ok());

  std::string body = client.get("/metrics.json").value();
  EXPECT_NE(body.find("hot.a"), std::string::npos);
  EXPECT_EQ(body.find("hot.b"), std::string::npos);

  // A mid-run added rank appears in the very next merged scrape.
  const std::string verb = "add-target " +
                           std::to_string(s1.address().host) + " " +
                           std::to_string(s1.address().port) + " 1";
  EXPECT_EQ(client.get(verb).value(), "ok\n");
  EXPECT_EQ(aggregator.target_count(), 2u);
  body = client.get("/metrics.json").value();
  EXPECT_NE(body.find("\"hot.b\":{\"\":2,\"rank=\\\"1\\\"\":2}"),
            std::string::npos)
      << body;

  // ... and a removed one disappears from the next scrape.
  EXPECT_EQ(client.get("remove-target 0").value(), "ok\n");
  body = client.get("/metrics.json").value();
  EXPECT_EQ(body.find("hot.a"), std::string::npos);
  EXPECT_NE(body.find("hot.b"), std::string::npos);
  EXPECT_NE(client.get("remove-target nope").value().find("error"),
            std::string::npos);
  EXPECT_NE(client.get("add-target oops").value().find("usage"),
            std::string::npos);
  client.close();
}

TEST(Federation, FoldedProfilesMergeRankStamped) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  auto& prof = Profiler::instance();
  prof.reset();
  WorkerSlot* slot = prof.register_worker("fed.w0");
  Profiler::bind_current_thread(slot);
  slot->publish(WorkerState::kRunning,
                prof.intern_label("fed.phase"));
  prof.sample_once();
  prof.sample_once();

  // Both "ranks" are this process, so each serves the same folded text;
  // the aggregator must stamp each copy with its source.
  net::Network net(4, fast_net());
  obs::TelemetryServer s0(net, 0, 9100);
  obs::TelemetryServer s1(net, 1, 9100);
  obs::Aggregator aggregator(
      net, 2, 9200, {{s0.address(), "0"}, {s1.address(), "1"}});
  obs::TelemetryClient client(net, 3);
  ASSERT_TRUE(client.connect(aggregator.address()).is_ok());
  const std::string merged = client.get("/profile/folded").value();
  EXPECT_NE(merged.find("rank=0;fed.w0;running;fed.phase 2\n"),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("rank=1;fed.w0;running;fed.phase 2\n"),
            std::string::npos);
  client.close();
  Profiler::bind_current_thread(nullptr);
  prof.release_worker(slot);
  prof.reset();
}

}  // namespace
}  // namespace pdc
