#include "obs/telemetry.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "net/framing.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "support/check.hpp"

namespace pdc::obs {

namespace {

std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out += ok ? ch : '_';
  }
  return out;
}

/// Exposition label text (no braces): keys sanitized like metric names,
/// values escaped per the Prometheus text format.
std::string exposition_labels(const Labels& labels) {
  std::string out;
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_name(k);
    out += "=\"";
    for (char ch : v) {
      switch (ch) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += ch;
      }
    }
    out += '"';
  }
  return out;
}

/// `name`, `name{labels}`, or `name{labels,extra}` — `extra` carries the
/// reserved le/quantile pair, appended after the series' own labels.
std::string series_ref(const std::string& name, const std::string& labels,
                       const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name + '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

constexpr const char kProfilingDisabledJson[] =
    "{\"error\":\"profiling disabled (PDCKIT_OBS_NOOP)\"}\n";

// One shape for the whole /trace family (including /trace/stream): a NOOP
// build answers every tracing endpoint with this body, so clients need a
// single "{\"error\"" check instead of per-endpoint shapes.
constexpr const char kTracingDisabledJson[] =
    "{\"error\":\"tracing disabled (PDCKIT_OBS_NOOP)\"}\n";

// Likewise one shape for the whole time-series plane (/query, /alerts,
// /alerts.wire, /incident/*): NOOP builds retain no series and evaluate
// no rules, so every endpoint of the family answers this body.
constexpr const char kTimeseriesDisabledJson[] =
    "{\"error\":\"time series disabled (PDCKIT_OBS_NOOP)\"}\n";

}  // namespace

std::string endpoint_query(const std::string& endpoint,
                           std::string_view key) {
  const std::size_t q = endpoint.find('?');
  if (q == std::string::npos) return {};
  std::size_t pos = q + 1;
  while (pos < endpoint.size()) {
    std::size_t amp = endpoint.find('&', pos);
    if (amp == std::string::npos) amp = endpoint.size();
    const std::string_view pair =
        std::string_view(endpoint).substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return {};
}

std::uint64_t endpoint_query_u64(const std::string& endpoint,
                                 std::string_view key,
                                 std::uint64_t fallback) {
  const std::string value = endpoint_query(endpoint, key);
  if (value.empty()) return fallback;
  std::uint64_t out = 0;
  for (char ch : value) {
    if (ch < '0' || ch > '9') return fallback;
    out = out * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return out;
}

std::string prometheus_exposition(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  const auto& samples = snapshot.samples;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // A family — one base name, every labeled series — is a contiguous run
    // (snapshot sort order) and gets a single # TYPE header.
    std::size_t j = i + 1;
    while (j < samples.size() && samples[j].kind == samples[i].kind &&
           samples[j].base == samples[i].base) {
      ++j;
    }
    const std::string name = sanitize_name(samples[i].base);
    switch (samples[i].kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name, exposition_labels(samples[k].labels)) + " " +
                 std::to_string(samples[k].count) + "\n";
        }
        break;
      case MetricKind::kGauge: {
        out += "# TYPE " + name + " gauge\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name, exposition_labels(samples[k].labels)) + " " +
                 std::to_string(samples[k].value) + "\n";
        }
        out += "# TYPE " + name + "_high_water gauge\n";
        for (std::size_t k = i; k < j; ++k) {
          out += series_ref(name + "_high_water",
                            exposition_labels(samples[k].labels)) +
                 " " + std::to_string(samples[k].high_water) + "\n";
        }
        break;
      }
      case MetricKind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        for (std::size_t k = i; k < j; ++k) {
          const MetricSample& s = samples[k];
          const std::string labels = exposition_labels(s.labels);
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            const double upper = Histogram::bucket_upper(b);
            cum += s.buckets[b];
            // The unbounded tail (if ever populated) is covered by +Inf.
            if (std::isinf(upper)) continue;
            out += series_ref(name + "_bucket", labels,
                              "le=\"" + format_double(upper) + "\"") +
                   " " + std::to_string(cum) + "\n";
          }
          out += series_ref(name + "_bucket", labels, "le=\"+Inf\"") + " " +
                 std::to_string(s.count) + "\n";
          out += series_ref(name + "_sum", labels) + " " +
                 std::to_string(s.sum) + "\n";
          out += series_ref(name + "_count", labels) + " " +
                 std::to_string(s.count) + "\n";
          for (const auto& [q, label] :
               {std::pair<double, const char*>{0.5, "0.5"},
                {0.9, "0.9"},
                {0.99, "0.99"}}) {
            out += series_ref(name, labels,
                              std::string("quantile=\"") + label + "\"") +
                   " " + format_double(s.quantile(q)) + "\n";
          }
        }
        break;
      }
    }
    i = j - 1;
  }
  return out;
}

std::string delta_json(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                       std::uint64_t cursor, std::string_view filter) {
  const auto matches = [&](const MetricSample& s) {
    return filter.empty() || s.name.compare(0, filter.size(), filter) == 0;
  };
  std::string out = "{\"cursor\":" + std::to_string(cursor) + ",\"counters\":{";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kCounter || !matches(s)) continue;
    const MetricSample* p = prev.find(s.name);
    const std::uint64_t before = p != nullptr ? p->count : 0;
    if (s.count == before) continue;
    comma();
    // Canonical names can contain quotes (labels) — always escape.
    append_json_string(out, s.name);
    out += ':' + std::to_string(s.count - before);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kGauge || !matches(s)) continue;
    comma();
    append_json_string(out, s.name);
    out += ":{\"value\":" + std::to_string(s.value) +
           ",\"high_water\":" + std::to_string(s.high_water) + '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& s : cur.samples) {
    if (s.kind != MetricKind::kHistogram || !matches(s)) continue;
    const MetricSample* p = prev.find(s.name);
    const std::uint64_t count_before = p != nullptr ? p->count : 0;
    const std::uint64_t sum_before = p != nullptr ? p->sum : 0;
    if (s.count == count_before) continue;
    comma();
    // Quantiles are over the cumulative distribution (buckets cannot be
    // diffed meaningfully once a scrape races updates), deltas over
    // count/sum.
    append_json_string(out, s.name);
    out += ":{\"count\":" + std::to_string(s.count - count_before) +
           ",\"sum\":" + std::to_string(s.sum - sum_before) +
           ",\"p50\":" + format_double(s.quantile(0.5)) +
           ",\"p90\":" + format_double(s.quantile(0.9)) +
           ",\"p99\":" + format_double(s.quantile(0.99)) + '}';
  }
  out += "}}";
  return out;
}

TelemetryServer::TelemetryServer(net::Network& net, int host,
                                 std::uint16_t port, TelemetryConfig config)
    : registry_(config.registry) {
  // Self-metrics are registered eagerly so the *first* scrape already
  // lists them: a lazy first-bump-after-render would make consecutive
  // fixed-seed runs disagree on the metric set and break the golden
  // exposition (see header contract). They always live in the process-wide
  // registry, even when this server serves a custom one.
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    registry.counter("pdc.telemetry.requests");
    registry.counter("pdc.telemetry.pushes");
    registry.histogram("pdc.telemetry.render_us");
    registry.counter("pdc.trace.stream.chunks");
    registry.counter("pdc.trace.stream.events");
    registry.counter("pdc.trace.stream.dropped");
  }
  net::ServerConfig server_config;
  server_config.model = config.model;
  server_config.workers = config.workers;
  server_config.raw_handler = [this](const net::Bytes& request,
                                     net::StreamSocket& socket) {
    return handle_stream(request, socket);
  };
  server_ = std::make_unique<net::Server>(
      net, host, port,
      [this](const net::Bytes& request) { return handle(request); },
      server_config);
}

TelemetryServer::~TelemetryServer() { stop(); }

net::Address TelemetryServer::address() const { return server_->address(); }

void TelemetryServer::attach_collector(const TraceCollector* collector) {
  collector_.store(collector, std::memory_order_release);
}

void TelemetryServer::attach_spans(const SpanCollector* spans) {
  spans_.store(spans, std::memory_order_release);
}

void TelemetryServer::attach_tsdb(const TimeSeriesStore* store) {
  tsdb_.store(store, std::memory_order_release);
}

void TelemetryServer::attach_slo(const SloMonitor* slo) {
  slo_.store(slo, std::memory_order_release);
}

void TelemetryServer::attach_recorder(const FlightRecorder* recorder) {
  recorder_.store(recorder, std::memory_order_release);
}

void TelemetryServer::stop() { server_->stop(); }

MetricsRegistry& TelemetryServer::registry() const {
  return registry_ != nullptr ? *registry_ : MetricsRegistry::instance();
}

std::string TelemetryServer::endpoint_body(const std::string& endpoint) {
  if (endpoint == "/healthz") {
    // Degraded when the attached SLO monitor has firing alerts; a server
    // with no monitor attached has no alert source and is plainly ok.
    const SloMonitor* slo = slo_.load(std::memory_order_acquire);
    const std::size_t firing = slo != nullptr ? slo->firing_count() : 0;
    return std::string("{\"status\":\"") + (firing > 0 ? "degraded" : "ok") +
           "\",\"firing\":" + std::to_string(firing) + "}\n";
  }
  if (endpoint == "/metrics") {
    return prometheus_exposition(registry().scrape());
  }
  if (endpoint == "/metrics.json") {
    std::string body = registry().scrape().to_json();
    // Exemplar splice: with a span collector attached, the scrape carries
    // the trace ids pinned to each pdc.trace.root_us bucket — the jump
    // from a histogram percentile to a concrete /trace/byid lookup.
    const SpanCollector* spans = spans_.load(std::memory_order_acquire);
    if (kObsEnabled && spans != nullptr && !body.empty() &&
        body.back() == '}') {
      body.pop_back();
      body += ",\"exemplars\":" + spans->exemplars_json() + "}";
    }
    return body;
  }
  if (endpoint == "/metrics.wire") {
    return registry().scrape().to_wire();
  }
  if (endpoint == "reset") {
    registry().reset();
    return "ok\n";
  }
  if (endpoint == "snapshot-now") {
    // An immediate scrape, bypassing whatever cadence the operator tier
    // polls at; body matches /metrics.json so consumers share a parser.
    return registry().scrape().to_json();
  }
  if (endpoint == "/trace") {
    if (!kObsEnabled) return kTracingDisabledJson;
    const TraceCollector* collector =
        collector_.load(std::memory_order_acquire);
    if (collector == nullptr) {
      return "{\"error\":\"no trace collector attached\"}\n";
    }
    if (collector->running()) {
      return "{\"error\":\"trace collector still running\",\"hint\":\"use "
             "/trace/stream <frames> [interval_ms] for live events, or stop "
             "the collector for a full dump\"}\n";
    }
    return collector->chrome_trace_json();
  }
  // Longer prefix first: "/trace/slowest?..." must not swallow the .wire
  // form (and vice versa would, since both share the /trace/slowest stem).
  if (endpoint == "/trace/slowest.wire" ||
      endpoint.rfind("/trace/slowest.wire?", 0) == 0) {
    if (!kObsEnabled) return kTracingDisabledJson;
    const SpanCollector* spans = spans_.load(std::memory_order_acquire);
    if (spans == nullptr) return "{\"error\":\"no span collector attached\"}\n";
    const std::uint64_t n = endpoint_query_u64(endpoint, "n", 8);
    return spans->slowest_wire(static_cast<std::size_t>(n));
  }
  if (endpoint == "/trace/slowest" ||
      endpoint.rfind("/trace/slowest?", 0) == 0) {
    if (!kObsEnabled) return kTracingDisabledJson;
    const SpanCollector* spans = spans_.load(std::memory_order_acquire);
    if (spans == nullptr) return "{\"error\":\"no span collector attached\"}\n";
    const std::uint64_t n = endpoint_query_u64(endpoint, "n", 8);
    return spans->slowest_json(static_cast<std::size_t>(n));
  }
  if (endpoint == "/trace/byid" || endpoint.rfind("/trace/byid?", 0) == 0) {
    if (!kObsEnabled) return kTracingDisabledJson;
    const SpanCollector* spans = spans_.load(std::memory_order_acquire);
    if (spans == nullptr) return "{\"error\":\"no span collector attached\"}\n";
    return spans->byid_json(endpoint_query_u64(endpoint, "id", 0));
  }
  if (endpoint == "/profile/folded") {
    if (!kObsEnabled) return kProfilingDisabledJson;
    return Profiler::instance().folded();
  }
  if (endpoint == "/profile/contention" ||
      endpoint.rfind("/profile/contention?", 0) == 0) {
    if (!kObsEnabled) return kProfilingDisabledJson;
    const std::uint64_t k = endpoint_query_u64(endpoint, "n", 10);
    return contention_json(contention_topk(
               registry().scrape(), static_cast<std::size_t>(k))) +
           "\n";
  }
  if (endpoint == "/profile" || endpoint.rfind("/profile?", 0) == 0) {
    if (!kObsEnabled) return kProfilingDisabledJson;
    // Collect-then-respond: this connection's serving thread samples for
    // the requested window, then replies with just that window's folded
    // stacks (the Profiler's global accumulation is untouched).
    const std::uint64_t ms = endpoint_query_u64(endpoint, "ms", 50);
    const std::uint64_t period = endpoint_query_u64(endpoint, "period_us", 1000);
    return Profiler::instance().collect(ms, period);
  }
  if (endpoint == "/query" || endpoint.rfind("/query?", 0) == 0) {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    const TimeSeriesStore* store = tsdb_.load(std::memory_order_acquire);
    if (store == nullptr) {
      return "{\"error\":\"no time-series store attached\"}\n";
    }
    const std::string expr = endpoint_query(endpoint, "expr");
    if (expr.empty()) {
      return "{\"error\":\"usage /query?expr=rate(name)&window=30s\"}\n";
    }
    const std::string window_text = endpoint_query(endpoint, "window");
    const auto window_us = window_text.empty()
                               ? std::optional<std::uint64_t>{1'000'000}
                               : parse_window_us(window_text);
    if (!window_us.has_value()) {
      return "{\"error\":\"bad window '" + window_text +
             "' (want <num>[us|ms|s])\"}\n";
    }
    return store->query_json(expr, *window_us);
  }
  // Longer prefix first, as in the /trace family: /alerts.wire shares the
  // /alerts stem.
  if (endpoint == "/alerts.wire") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    const SloMonitor* slo = slo_.load(std::memory_order_acquire);
    if (slo == nullptr) return "{\"error\":\"no slo monitor attached\"}\n";
    return slo->alerts_wire();
  }
  if (endpoint == "/alerts") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    const SloMonitor* slo = slo_.load(std::memory_order_acquire);
    if (slo == nullptr) return "{\"error\":\"no slo monitor attached\"}\n";
    return slo->alerts_json();
  }
  if (endpoint == "/incident/last") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    const FlightRecorder* recorder = recorder_.load(std::memory_order_acquire);
    if (recorder == nullptr) {
      return "{\"error\":\"no flight recorder attached\"}\n";
    }
    return recorder->incident_last_json();
  }
  if (endpoint == "/incident/list") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    const FlightRecorder* recorder = recorder_.load(std::memory_order_acquire);
    if (recorder == nullptr) {
      return "{\"error\":\"no flight recorder attached\"}\n";
    }
    return recorder->incident_list_json();
  }
  return "error: unknown endpoint '" + endpoint +
         "' (try /metrics, /metrics.json, /metrics.wire, /trace, "
         "/trace/slowest?n=K, /trace/slowest.wire?n=K, /trace/byid?id=N, "
         "/healthz, /profile?ms=N, /profile/folded, /profile/contention?n=K, "
         "/query?expr=E&window=W, /alerts, /alerts.wire, /incident/last, "
         "/incident/list, reset, snapshot-now, "
         "/subscribe <frames> [interval_ms] [filter], "
         "/trace/stream <frames> [interval_ms])\n";
}

net::Bytes TelemetryServer::handle(const net::Bytes& request) {
  const std::uint64_t start = now_us();
  std::string body = endpoint_body(net::to_string(request));
  // Self-accounting strictly after the render: a scrape must never observe
  // its own request (determinism contract in the header).
  PDC_OBS_HIST("pdc.telemetry.render_us", now_us() - start);
  PDC_OBS_COUNT("pdc.telemetry.requests");
  return net::to_bytes(body);
}

bool TelemetryServer::handle_stream(const net::Bytes& request,
                                    net::StreamSocket& socket) {
  const std::string text = net::to_string(request);
  const bool is_subscribe = text.rfind("/subscribe", 0) == 0;
  const bool is_trace_stream = text.rfind("/trace/stream", 0) == 0;
  if (!is_subscribe && !is_trace_stream) return false;
  const char* verb = is_subscribe ? "/subscribe" : "/trace/stream";
  std::istringstream in(text.substr(std::string_view(verb).size()));
  std::uint64_t frames = 0;
  std::uint64_t interval_ms = 0;
  std::string filter;
  const bool got_frames = static_cast<bool>(in >> frames);
  if (!(in >> interval_ms)) {
    // Second token absent or non-numeric: default the interval and let a
    // bare "/subscribe N pdc.steal." treat the token as the filter.
    in.clear();
    interval_ms = 0;
  }
  in >> filter;
  if (!got_frames || frames == 0) {
    (void)net::MessageCodec::send_message(
        socket, net::to_bytes(std::string("error: usage ") + verb +
                              " <frames> [interval_ms]" +
                              (is_subscribe ? " [filter]" : "") + "\n"));
    return true;
  }
  return is_subscribe
             ? stream_subscription(frames, interval_ms, filter, socket)
             : stream_trace(frames, interval_ms, socket);
}

bool TelemetryServer::stream_subscription(std::uint64_t frames,
                                          std::uint64_t interval_ms,
                                          const std::string& filter,
                                          net::StreamSocket& socket) {
  // Per-client cursor state lives right here on the connection's stack:
  // frame 1 diffs against the empty snapshot (= full totals), frame k
  // against what this client saw in frame k-1.
  MetricsSnapshot prev;
  for (std::uint64_t cursor = 1; cursor <= frames; ++cursor) {
    MetricsSnapshot cur = registry().scrape();
    const std::string frame = delta_json(prev, cur, cursor, filter);
    if (!net::MessageCodec::send_message(socket, net::to_bytes(frame))
             .is_ok()) {
      break;  // client went away
    }
    PDC_OBS_COUNT("pdc.telemetry.pushes");
    prev = std::move(cur);
    if (cursor < frames && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return true;
}

bool TelemetryServer::stream_trace(std::uint64_t frames,
                                   std::uint64_t interval_ms,
                                   net::StreamSocket& socket) {
  if (!kObsEnabled) {
    // Same body the rest of the /trace family returns — one error shape
    // for tracing-off builds regardless of transport (frame vs stream).
    (void)net::MessageCodec::send_message(
        socket, net::to_bytes(std::string(kTracingDisabledJson)));
    return true;
  }
  const TraceCollector* collector = collector_.load(std::memory_order_acquire);
  if (collector == nullptr || !collector->running()) {
    (void)net::MessageCodec::send_message(
        socket, net::to_bytes(std::string(
                    collector == nullptr
                        ? "{\"error\":\"no trace collector attached\"}\n"
                        : "{\"error\":\"trace collector not running\"}\n")));
    return true;
  }
  // The per-client stream position lives on the connection's stack, like
  // the subscription cursor: the collector itself keeps no client state.
  TraceStreamCursor cursor;
  for (std::uint64_t frame_no = 1; frame_no <= frames; ++frame_no) {
    const TraceStreamChunk chunk = collector->stream_chunk(cursor);
    std::string frame = "{\"cursor\":" + std::to_string(frame_no) +
                        ",\"dropped\":" + std::to_string(cursor.dropped) +
                        ",\"events\":[" + chunk.events_json + "]}";
    if (!net::MessageCodec::send_message(socket, net::to_bytes(frame))
             .is_ok()) {
      break;  // client went away
    }
    PDC_OBS_COUNT("pdc.trace.stream.chunks");
    PDC_OBS_COUNT("pdc.trace.stream.events", chunk.events);
    if (chunk.dropped != 0) {
      PDC_OBS_COUNT("pdc.trace.stream.dropped", chunk.dropped);
    }
    if (frame_no < frames && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return true;
}

support::Status TelemetryClient::connect(const net::Address& server) {
  auto socket = net_.connect(host_, server);
  if (!socket.is_ok()) return socket.status();
  socket_ = std::move(socket).value();
  return support::Status::ok();
}

support::Result<std::string> TelemetryClient::get(const std::string& endpoint) {
  PDC_CHECK_MSG(socket_.valid(), "get before connect");
  if (auto status =
          net::MessageCodec::send_message(socket_, net::to_bytes(endpoint));
      !status.is_ok()) {
    return status;
  }
  auto reply = net::MessageCodec::recv_message(socket_);
  if (!reply.is_ok()) return reply.status();
  return net::to_string(reply.value());
}

support::Status TelemetryClient::subscribe(
    std::size_t frames, std::uint64_t interval_ms,
    const std::function<void(const std::string&)>& on_frame,
    std::string_view filter) {
  PDC_CHECK_MSG(socket_.valid(), "subscribe before connect");
  std::string request = "/subscribe " + std::to_string(frames) + " " +
                        std::to_string(interval_ms);
  if (!filter.empty()) {
    request += ' ';
    request += filter;
  }
  if (auto status =
          net::MessageCodec::send_message(socket_, net::to_bytes(request));
      !status.is_ok()) {
    return status;
  }
  for (std::size_t i = 0; i < frames; ++i) {
    auto frame = net::MessageCodec::recv_message(socket_);
    if (!frame.is_ok()) return frame.status();
    on_frame(net::to_string(frame.value()));
  }
  return support::Status::ok();
}

support::Status TelemetryClient::stream_trace(
    std::size_t frames, std::uint64_t interval_ms,
    const std::function<void(const std::string&)>& on_chunk) {
  PDC_CHECK_MSG(socket_.valid(), "stream_trace before connect");
  const std::string request = "/trace/stream " + std::to_string(frames) + " " +
                              std::to_string(interval_ms);
  if (auto status =
          net::MessageCodec::send_message(socket_, net::to_bytes(request));
      !status.is_ok()) {
    return status;
  }
  for (std::size_t i = 0; i < frames; ++i) {
    auto frame = net::MessageCodec::recv_message(socket_);
    if (!frame.is_ok()) return frame.status();
    const std::string text = net::to_string(frame.value());
    on_chunk(text);
    // A usage/collector problem arrives as a single error frame; stop
    // instead of blocking on frames the server will never push.
    if (text.rfind("{\"error\"", 0) == 0 || text.rfind("error:", 0) == 0) {
      break;
    }
  }
  return support::Status::ok();
}

void TelemetryClient::close() {
  if (socket_.valid()) socket_.close();
}

}  // namespace pdc::obs
