// Experiment PERF-SERVER — the three net::Server threading models under
// identical open-loop load (net::LoadGen), swept across connection counts.
//
// The question each row answers is the paper's capacity question: how many
// concurrent clients can one host multiplex, and what happens to tail
// latency when the model runs out? Thread-per-connection spends a thread
// per client and dies by context-switch; the worker pool holds a
// connection per worker until the client hangs up, so every connection
// beyond `workers` starves in the accept queue; the event-driven engine
// multiplexes every connection over a readiness loop + work-stealing pool
// and is the only model that reaches 10^5..10^6 connections.
//
// Open-loop latency (measured from each request's *scheduled* send time)
// makes the starvation visible as p99/p999 blowup instead of silently
// slowing the generator down — the coordinated-omission trap described in
// docs/serving.md.
//
//   - thread-per-connection runs only at <= 2048 connections (a thread per
//     simulated client; beyond that the row measures thread creation).
//   - PDCKIT_PERF_SERVER_XL=1 adds a 1M-connection event-driven row
//     (skipped by default: the connect phase alone takes tens of seconds).
//
// A fabric micro-row runs first, with no server: the net::Network
// dispatcher alone. It reports the dispatcher's saturated delivery rate
// (64 connections x 20k 16-byte chunks from two sender threads) and how
// late an idle fabric delivers one stream chunk past its configured
// latency_ms (p50/p99 over 2000 sequential sends).
//
// JSON via PDCKIT_BENCH_JSON (obs::BenchReport); compared across commits
// by bench/compare.py against BENCH_baseline.json.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "obs/bench_report.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace pdc::net;
using pdc::support::TextTable;

constexpr std::size_t kWorkers = 3;  // equal hardware threads for pool/event

const char* model_key(ThreadingModel model) {
  switch (model) {
    case ThreadingModel::kThreadPerConnection:
      return "tpc";
    case ThreadingModel::kWorkerPool:
      return "pool";
    case ThreadingModel::kEventDriven:
      return "event";
  }
  return "?";
}

struct Row {
  ThreadingModel model;
  std::size_t connections;
  LoadGenReport report;
};

Row run_model(ThreadingModel model, std::size_t connections,
              std::size_t requests) {
  NetConfig net_config;
  net_config.latency_ms = 0.01;
  Network net(5, net_config);

  ServerConfig server_config;
  server_config.model = model;
  server_config.workers = kWorkers;
  // Zero-copy echo: the handler cost is identical across models, so the
  // rows isolate the threading model itself.
  server_config.view_handler = [](BytesView request) {
    return request.to_owned();
  };
  Server server(net, 0, 80, nullptr, server_config);

  LoadGenConfig load;
  load.connections = connections;
  load.requests = requests;
  load.duration_s = 0.5;
  load.grace_s = 0.75;  // bounded wait for models that starve connections
  load.curve = ArrivalCurve::kConstant;
  load.drivers = 2;
  load.first_client_host = 1;
  load.client_hosts = 4;
  LoadGen gen(net, server.address());
  Row row{model, connections, gen.run(load)};
  server.stop();
  return row;
}

std::string ckey(std::size_t connections) {
  return "c" + std::to_string(connections);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Link {
  StreamSocket client;
  StreamSocket server;
};

std::vector<Link> open_links(Network& net, Listener& listener,
                             std::size_t count) {
  std::vector<Link> links;
  for (std::size_t i = 0; i < count; ++i) {
    StreamSocket client = net.connect(0, listener.local()).value();
    links.push_back({std::move(client), listener.accept().value()});
  }
  return links;
}

/// Deliveries per second with the dispatcher never idle: two threads send
/// as fast as send() returns, and the clock stops when the last byte of
/// every connection has landed.
double fabric_events_per_s() {
  constexpr std::size_t kConnections = 64;
  constexpr std::size_t kChunks = 20000;
  constexpr std::size_t kChunkBytes = 16;
  constexpr std::size_t kSenders = 2;
  Network net(2, NetConfig{});
  auto listener = net.listen(1, 7);
  std::vector<Link> links = open_links(net, *listener, kConnections);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> senders;
  for (std::size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&links, s] {
      const Bytes chunk(kChunkBytes);
      for (std::size_t c = 0; c < kChunks; ++c) {
        for (std::size_t i = s; i < links.size(); i += kSenders) {
          (void)links[i].client.send(chunk);
        }
      }
    });
  }
  for (Link& link : links) {
    (void)link.server.recv_exact(kChunks * kChunkBytes);
  }
  const double elapsed = seconds_since(start);
  for (auto& sender : senders) sender.join();
  return static_cast<double>(kConnections * kChunks) / elapsed;
}

/// Microseconds from send() until a blocked recv returns the chunk, on an
/// idle fabric, one chunk at a time.
std::vector<double> fabric_one_way_us(const NetConfig& config) {
  constexpr int kSamples = 2000;
  Network net(2, config);
  auto listener = net.listen(1, 7);
  std::vector<Link> links = open_links(net, *listener, 1);
  const Bytes chunk(16);
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const auto start = std::chrono::steady_clock::now();
    (void)links[0].client.send(chunk);
    (void)links[0].server.recv_exact(chunk.size());
    samples.push_back(seconds_since(start) * 1e6);
  }
  return samples;
}

}  // namespace

int main() {
  pdc::obs::BenchReport report("perf_server");
  std::cout << "=== PERF-SERVER: threading models under open-loop load ===\n"
            << "(echo server, " << kWorkers
            << " workers, open-loop latency from scheduled send time)\n\n";

  {
    const NetConfig config;
    const double configured_us = config.latency_ms * 1e3;
    const std::vector<double> one_way = fabric_one_way_us(config);
    const double p50 = pdc::support::percentile(one_way, 50);
    const double p99 = pdc::support::percentile(one_way, 99);
    const double events_per_s = fabric_events_per_s();
    report.add_metric("fabric.events.per_s", events_per_s);
    report.add_metric("fabric.late.p50.us", p50 - configured_us);
    report.add_metric("fabric.late.p99.us", p99 - configured_us);
    TextTable fabric("Fabric dispatcher (no server)");
    fabric.set_header({"saturated events/s", "configured us", "one-way p50 us",
                       "one-way p99 us", "late p50 us", "late p99 us"});
    fabric.add_row({TextTable::num(events_per_s / 1e6, 2) + "M",
                    TextTable::num(configured_us, 0), TextTable::num(p50, 0),
                    TextTable::num(p99, 0),
                    TextTable::num(p50 - configured_us, 0),
                    TextTable::num(p99 - configured_us, 0)});
    fabric.render(std::cout);
    report.add_table(fabric);
    std::cout << '\n';
  }

  TextTable table("Threading models x connection count");
  table.set_header({"conns", "model", "sent", "answered", "rps", "p50 us",
                    "p99 us", "p999 us"});

  std::vector<std::size_t> sweep{256, 2048, 20000, 100000};
  const bool xl = std::getenv("PDCKIT_PERF_SERVER_XL") != nullptr;
  if (xl) sweep.push_back(1000000);

  for (const std::size_t connections : sweep) {
    const std::size_t requests = connections <= 2048 ? 50000 : 100000;
    std::vector<ThreadingModel> models;
    if (connections <= 2048) {
      models.push_back(ThreadingModel::kThreadPerConnection);
    }
    if (connections <= 100000) {
      models.push_back(ThreadingModel::kWorkerPool);
    }
    models.push_back(ThreadingModel::kEventDriven);

    double pool_rps = 0.0;
    double event_rps = 0.0;
    for (const ThreadingModel model : models) {
      const Row row = run_model(model, connections, requests);
      const auto& r = row.report;
      const std::string prefix =
          std::string(model_key(model)) + "." + ckey(connections);
      report.add_metric("rps." + prefix + ".per_s", r.rps);
      report.add_metric("p50." + prefix + ".us", r.p50_us);
      report.add_metric("p99." + prefix + ".us", r.p99_us);
      report.add_metric("p999." + prefix + ".us", r.p999_us);
      if (model == ThreadingModel::kWorkerPool) pool_rps = r.rps;
      if (model == ThreadingModel::kEventDriven) event_rps = r.rps;
      table.add_row({std::to_string(connections), model_key(model),
                     std::to_string(r.sent), std::to_string(r.received),
                     TextTable::num(r.rps / 1e3, 1) + "k",
                     TextTable::num(r.p50_us, 0), TextTable::num(r.p99_us, 0),
                     TextTable::num(r.p999_us, 0)});
    }
    if (pool_rps > 0.0 && event_rps > 0.0) {
      report.add_metric("speedup_event_vs_pool." + ckey(connections),
                        event_rps / pool_rps);
    }
  }

  table.render(std::cout);
  report.add_table(table);
  std::cout
      << "(the worker pool parks a connection per worker until the client "
         "hangs up, so answered collapses to ~workers/conns of sent as "
         "connections grow — the starvation the event engine exists to "
         "fix; see docs/serving.md)\n";
  if (!xl) {
    std::cout << "(set PDCKIT_PERF_SERVER_XL=1 for a 1M-connection "
                 "event-driven row)\n";
  }

  report.write_if_requested();
  return 0;
}
