// TelemetryServer: PDCkit's live telemetry plane, served over its own
// client-server stack.
//
// The case-study courses teach performance *observation* of running
// systems; this is the piece that makes PDCkit queryable while it runs.
// A TelemetryServer is an ordinary net::Server speaking the framed text
// protocol (request = endpoint string, reply = body):
//
//   /metrics        Prometheus-style text exposition of the registry
//   /metrics.json   the same scrape as MetricsSnapshot::to_json()
//   /metrics.wire   the same scrape as MetricsSnapshot::to_wire() — the
//                   exact-integer encoding federation scrapes (see
//                   obs/federation.hpp)
//   /trace          Chrome trace_event JSON of the attached collector's
//                   harvested session (error JSON when none is attached
//                   or it is still running — stream instead, below)
//   /trace/slowest?n=K    the attached SpanCollector's K slowest kept
//                   traces as JSON, critical-path annotated (default 8)
//   /trace/slowest.wire?n=K   the same list in the line-oriented wire
//                   form the Aggregator federates
//   /trace/byid?id=N      one kept trace by trace id (error JSON when it
//                   was sampled away)
//                   (every /trace-family endpoint — including
//                   /trace/stream — answers the same
//                   {"error":"tracing disabled (PDCKIT_OBS_NOOP)"} shape
//                   under PDCKIT_OBS_NOOP)
//   /healthz        {"status":"ok|degraded","firing":N} — degraded when
//                   the attached SloMonitor has firing alerts (ok with
//                   zero firing when none is attached)
//   /query?expr=E&window=W   windowed query against the attached
//                   TimeSeriesStore: E is rate(name), increase(name),
//                   avg_over_time(name), max_over_time(name), or
//                   quantile_over_time(name,q); W is <num>[us|ms|s]
//                   (default 1s). Body: {"expr":...,"window_us":N,
//                   "value":<num|null>} or {"error":...}
//   /alerts         the attached SloMonitor's alert states as JSON
//                   ({"alerts":[...],"firing":N})
//   /alerts.wire    the same states in the line-oriented wire form the
//                   Aggregator federates (see obs/slo.hpp)
//   /incident/last  the attached FlightRecorder's newest incident bundle
//   /incident/list  its retained incident index
//                   (the /query, /alerts, and /incident families answer
//                   one {"error":"time series disabled (PDCKIT_OBS_NOOP)"}
//                   shape under PDCKIT_OBS_NOOP)
//   /profile?ms=N&period_us=P   collect-then-respond profile: samples the
//                   worker slots inline for N ms (default 50) at period P
//                   (default 1000) and replies with that window's folded
//                   stacks — the global accumulation is untouched
//   /profile/folded flamegraph.pl-compatible folded stacks of the
//                   Profiler's global accumulation (whatever sampler is
//                   feeding it: start(), run_sim_sampler, sample_once)
//   /profile/contention?n=K   top-K most-contended sites as JSON, ranked
//                   by total wait from pdc.contend.wait_us{site=} in the
//                   served registry
//                   (all three /profile endpoints answer an error JSON
//                   under PDCKIT_OBS_NOOP)
//   /subscribe N I [filter]  push N framed delta snapshots, I ms apart;
//                   the optional third token restricts frames to series
//                   whose canonical name starts with it — "pdc.steal." for
//                   a family, `pdc.raft.term{rank="1"}` for one labeled
//                   series (see below)
//   /trace/stream N I  push N framed chunks of live trace events from the
//                   *running* collector, I ms apart: per-client
//                   TraceStreamCursor on the connection stack; each frame
//                   is {"cursor":k,"dropped":<cumulative laps>,
//                   "events":[...]} with events byte-identical to their
//                   /trace dump twins
//   reset           control verb: zero every metric in the served
//                   registry, reply "ok\n"
//   snapshot-now    control verb: immediate /metrics.json body, bypassing
//                   any scrape cadence an operator tier imposes
//
// Delta subscriptions use net::ServerConfig::raw_handler: the serving
// thread scrapes, diffs against the previous scrape it sent *this client*
// (the per-client cursor state lives on the connection's stack), and
// pushes one framed JSON object per tick with a cursor that starts at 1
// and increments by 1 per frame. Frame 1 diffs against an empty snapshot,
// i.e. it carries full totals.
//
// Determinism contract: serving a scrape never perturbs the scrape it
// renders. Stream traffic bumps no pdc.* metrics (by design in net), and
// the server's self-metrics are registered eagerly in the constructor and
// incremented only *after* a reply is rendered — so the first /metrics
// body after a fixed-seed sim run is byte-identical across runs (golden
// test in tests/obs_test.cpp).
//
// This header lives under src/obs/ with the pdc::obs namespace, but the
// implementation links the net stack — which itself links pdc_obs — so it
// builds as its own target (pdc_telemetry) to keep the module graph
// acyclic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pdc::obs {

class TimeSeriesStore;
class SloMonitor;
class FlightRecorder;

/// Prometheus-style text exposition of a scrape. Grammar per metric (names
/// are sanitized: every character outside [A-Za-z0-9_:] becomes '_'):
///   counter    # TYPE <name> counter        + one "<name> <total>" line
///   gauge      # TYPE <name> gauge          + value and <name>_high_water
///   histogram  # TYPE <name> histogram      + cumulative <name>_bucket{le=...}
///              lines (power-of-two bounds), _sum, _count, and
///              <name>{quantile="0.5|0.9|0.99"} interpolated summaries.
/// Labeled series render as `<name>{k="v",...} <value>` (label keys
/// sanitized like names, values escaped) with one `# TYPE` line per
/// family, and `le`/`quantile` appended after the series labels.
[[nodiscard]] std::string prometheus_exposition(const MetricsSnapshot& snapshot);

/// One frame of the delta-subscription stream: counters and histograms
/// report activity since `prev` (names whose delta is zero are omitted);
/// gauges always report their current value and high-water mark. A
/// non-empty `filter` keeps only series whose canonical name starts with
/// it (label-aware: canonical names embed the label block). Pure function
/// so cursor semantics are unit-testable without a network.
[[nodiscard]] std::string delta_json(const MetricsSnapshot& prev,
                                     const MetricsSnapshot& cur,
                                     std::uint64_t cursor,
                                     std::string_view filter = {});

/// Value of `key` in an endpoint's `?k=v&k2=v2` query block; empty when
/// absent. Shared by the telemetry and aggregator endpoint parsers.
[[nodiscard]] std::string endpoint_query(const std::string& endpoint,
                                         std::string_view key);

/// Like endpoint_query, parsed as an unsigned integer; `fallback` when
/// absent or malformed.
[[nodiscard]] std::uint64_t endpoint_query_u64(const std::string& endpoint,
                                               std::string_view key,
                                               std::uint64_t fallback);

struct TelemetryConfig {
  net::ThreadingModel model = net::ThreadingModel::kThreadPerConnection;
  std::size_t workers = 2;  // worker-pool model only
  // Registry this server scrapes and resets; nullptr means the
  // process-wide MetricsRegistry::instance(). Per-rank servers in a
  // federated sim each point at their own instance so every endpoint
  // exports that rank's plane only. The server's own self-metrics always
  // go to the process-wide registry, keeping a custom plane unperturbed
  // by the act of scraping it.
  MetricsRegistry* registry = nullptr;
};

class TelemetryServer {
 public:
  TelemetryServer(net::Network& net, int host, std::uint16_t port,
                  TelemetryConfig config = {});
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  [[nodiscard]] net::Address address() const;

  /// Points /trace at a collector. The caller keeps ownership and must
  /// outlive the server (or detach with nullptr); /trace answers an error
  /// JSON while the collector is absent or still running.
  void attach_collector(const TraceCollector* collector);

  /// Points /trace/slowest, /trace/byid and the /metrics.json exemplar
  /// splice at a span collector. Same ownership contract as
  /// attach_collector; the span endpoints answer an error JSON while
  /// absent.
  void attach_spans(const SpanCollector* spans);

  /// Points /query at a time-series store. Same ownership contract as
  /// attach_collector; /query answers an error JSON while absent.
  void attach_tsdb(const TimeSeriesStore* store);

  /// Points /alerts, /alerts.wire, and the /healthz degraded signal at an
  /// SLO monitor. Same ownership contract.
  void attach_slo(const SloMonitor* slo);

  /// Points /incident/last and /incident/list at a flight recorder. Same
  /// ownership contract.
  void attach_recorder(const FlightRecorder* recorder);

  /// Stops accepting; existing connections finish their current request.
  void stop();

 private:
  [[nodiscard]] MetricsRegistry& registry() const;
  [[nodiscard]] std::string endpoint_body(const std::string& endpoint);
  net::Bytes handle(const net::Bytes& request);
  bool handle_stream(const net::Bytes& request, net::StreamSocket& socket);
  bool stream_subscription(std::uint64_t frames, std::uint64_t interval_ms,
                           const std::string& filter,
                           net::StreamSocket& socket);
  bool stream_trace(std::uint64_t frames, std::uint64_t interval_ms,
                    net::StreamSocket& socket);

  MetricsRegistry* registry_ = nullptr;  // nullptr = process-wide instance
  std::atomic<const TraceCollector*> collector_{nullptr};
  std::atomic<const SpanCollector*> spans_{nullptr};
  std::atomic<const TimeSeriesStore*> tsdb_{nullptr};
  std::atomic<const SloMonitor*> slo_{nullptr};
  std::atomic<const FlightRecorder*> recorder_{nullptr};
  std::unique_ptr<net::Server> server_;  // last member: threads start here
};

/// Framed-stream client for the telemetry plane, so examples and tests
/// need no framing code of their own.
class TelemetryClient {
 public:
  TelemetryClient(net::Network& net, int host) : net_(net), host_(host) {}

  support::Status connect(const net::Address& server);

  /// One GET round trip ("/metrics", "/healthz", ...).
  support::Result<std::string> get(const std::string& endpoint);

  /// Subscribes to `frames` delta snapshots `interval_ms` apart and calls
  /// `on_frame` with each frame's JSON. A non-empty `filter` restricts the
  /// frames to series whose canonical name starts with it. Returns after
  /// the last frame.
  support::Status subscribe(
      std::size_t frames, std::uint64_t interval_ms,
      const std::function<void(const std::string&)>& on_frame,
      std::string_view filter = {});

  /// Streams `frames` chunks of live trace events from the server's
  /// running collector (`/trace/stream`), calling `on_chunk` with each
  /// frame's JSON. Returns after the last frame.
  support::Status stream_trace(
      std::size_t frames, std::uint64_t interval_ms,
      const std::function<void(const std::string&)>& on_chunk);

  void close();

 private:
  net::Network& net_;
  int host_;
  net::StreamSocket socket_;
};

}  // namespace pdc::obs
