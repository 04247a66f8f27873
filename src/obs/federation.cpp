#include "obs/federation.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "parallel/parallel_for.hpp"

namespace pdc::obs {

namespace {

/// Combines `from` into `into` under one key (kinds always match: the key
/// maps are segregated by kind).
void merge_into(MetricSample& into, const MetricSample& from) {
  switch (from.kind) {
    case MetricKind::kCounter:
      into.count += from.count;
      break;
    case MetricKind::kGauge:
      // Last write wins, in source input order (associative: combining
      // prefixes first still ends on the final source's value).
      into.value = from.value;
      into.high_water = from.high_water;
      break;
    case MetricKind::kHistogram:
      into.count += from.count;
      into.sum += from.sum;
      if (into.buckets.size() < from.buckets.size()) {
        into.buckets.resize(from.buckets.size(), 0);
      }
      for (std::size_t b = 0; b < from.buckets.size(); ++b) {
        into.buckets[b] += from.buckets[b];
      }
      break;
  }
}

using KeyedSamples = std::map<MetricKey, MetricSample, MetricKeyLess>;

void insert_or_merge(KeyedSamples& bucket, MetricKey key,
                     const MetricSample& sample) {
  auto it = bucket.find(key);
  if (it == bucket.end()) {
    bucket.emplace(std::move(key), sample);
  } else {
    merge_into(it->second, sample);
  }
}

constexpr const char kProfilingDisabledJson[] =
    "{\"error\":\"profiling disabled (PDCKIT_OBS_NOOP)\"}\n";

// Matches the TelemetryServer body for the whole /trace family under NOOP.
constexpr const char kTracingDisabledJson[] =
    "{\"error\":\"tracing disabled (PDCKIT_OBS_NOOP)\"}\n";

// Matches the TelemetryServer body for the time-series family under NOOP.
constexpr const char kTimeseriesDisabledJson[] =
    "{\"error\":\"time series disabled (PDCKIT_OBS_NOOP)\"}\n";

/// The Aggregator /alerts body: federated rows grouped by rule (input is
/// (rule, source)-sorted), each group summarized worst-state-wins with
/// the per-source rows nested under "sources". Top-level "firing" counts
/// *rules* whose rollup is firing, matching the /healthz signal.
std::string alerts_rollup_json(const std::vector<AlertWireRow>& rows) {
  std::string out = "{\"alerts\":[";
  std::size_t firing = 0;
  std::size_t i = 0;
  while (i < rows.size()) {
    std::size_t j = i;
    AlertState worst = rows[i].state;
    double value = rows[i].value;
    while (j < rows.size() && rows[j].rule == rows[i].rule) {
      if (alert_state_severity(rows[j].state) > alert_state_severity(worst)) {
        worst = rows[j].state;
      }
      value = std::max(value, rows[j].value);
      ++j;
    }
    if (worst == AlertState::kFiring) ++firing;
    if (i != 0) out += ',';
    out += "{\"rule\":";
    append_json_string(out, rows[i].rule);
    out += ",\"state\":\"";
    out += alert_state_name(worst);
    out += "\",\"value\":" + format_double(value) + ",\"sources\":[";
    for (std::size_t k = i; k < j; ++k) {
      if (k != i) out += ',';
      out += alert_row_json(rows[k]);
    }
    out += "]}";
    i = j;
  }
  out += "],\"firing\":" + std::to_string(firing) + "}\n";
  return out;
}

/// Firing-rule count of a federated row set (worst-state-wins per rule).
std::size_t firing_rules(const std::vector<AlertWireRow>& rows) {
  std::size_t firing = 0;
  std::size_t i = 0;
  while (i < rows.size()) {
    bool any = false;
    std::size_t j = i;
    while (j < rows.size() && rows[j].rule == rows[i].rule) {
      any = any || rows[j].state == AlertState::kFiring;
      ++j;
    }
    if (any) ++firing;
    i = j;
  }
  return firing;
}

/// A target that could not be reached, or whose reply does not parse.
void count_scrape_error() { PDC_OBS_COUNT("pdc.fed.scrape_errors"); }

/// A well-formed `{"error":...}` answer: the endpoint has nothing to serve
/// (a NOOP rank, no collector, no monitor). Skipped, not counted.
bool is_error_answer(const std::string& body) {
  return body.rfind("{\"error\"", 0) == 0;
}

}  // namespace

MetricsSnapshot merge_federated(const std::vector<SourceSnapshot>& sources,
                                std::string_view source_label) {
  // One sorted map per kind keeps the output in the snapshot's canonical
  // order (kind group, then base, then labels) — byte-stable however the
  // scrapes arrived.
  KeyedSamples merged[3];
  for (const auto& [source, snapshot] : sources) {
    for (const auto& s : snapshot.samples) {
      auto& bucket = merged[static_cast<std::size_t>(s.kind)];

      MetricKey stamped{s.base, s.labels};
      stamped.add_label_if_absent(source_label, source);
      const bool newly_stamped = stamped.labels.size() != s.labels.size();

      MetricSample per_source = s;
      per_source.labels = stamped.labels;
      per_source.name = stamped.canonical();
      insert_or_merge(bucket, std::move(stamped), per_source);

      // The aggregate series keeps the input's own key. When the input
      // already carried the source label (lower federation tier), the
      // stamped insert above *is* the aggregate — inserting again would
      // double-count.
      if (newly_stamped) {
        insert_or_merge(bucket, MetricKey{s.base, s.labels}, s);
      }
    }
  }
  MetricsSnapshot out;
  for (auto& bucket : merged) {
    for (auto& [key, sample] : bucket) {
      out.samples.push_back(std::move(sample));
    }
  }
  return out;
}

Aggregator::Aggregator(net::Network& net, int host, std::uint16_t port,
                       std::vector<ScrapeTarget> targets,
                       AggregatorConfig config)
    : net_(net),
      host_(host),
      targets_(std::move(targets)),
      config_(std::move(config)),
      pool_(config_.scrape_threads) {
  // Eager self-metric registration, same contract as TelemetryServer: the
  // first scrape of the process-wide registry already lists the full set.
  if constexpr (kObsEnabled) {
    auto& registry = MetricsRegistry::instance();
    registry.counter("pdc.fed.scrapes");
    registry.counter("pdc.fed.scrape_errors");
    registry.histogram("pdc.fed.scrape_us");
    registry.histogram("pdc.fed.merge_us");
    registry.gauge("pdc.fed.targets").add(
        static_cast<std::int64_t>(targets_.size()));
  }
  net::ServerConfig server_config;
  server_config.model = config_.model;
  server_config.workers = config_.workers;
  server_ = std::make_unique<net::Server>(
      net_, host_, port,
      [this](const net::Bytes& request) {
        return net::to_bytes(endpoint_body(net::to_string(request)));
      },
      server_config);
}

Aggregator::~Aggregator() { stop(); }

net::Address Aggregator::address() const { return server_->address(); }

void Aggregator::stop() { server_->stop(); }

std::vector<ScrapeTarget> Aggregator::targets_copy() const {
  std::scoped_lock lock(targets_mutex_);
  return targets_;
}

void Aggregator::add_target(ScrapeTarget target) {
  std::scoped_lock lock(targets_mutex_);
  targets_.push_back(std::move(target));
  PDC_OBS_GAUGE_ADD("pdc.fed.targets", 1);
}

bool Aggregator::remove_target(std::string_view source) {
  std::scoped_lock lock(targets_mutex_);
  auto it = std::find_if(
      targets_.begin(), targets_.end(),
      [&](const ScrapeTarget& t) { return t.source == source; });
  if (it == targets_.end()) return false;
  targets_.erase(it);
  PDC_OBS_GAUGE_SUB("pdc.fed.targets", 1);
  return true;
}

std::size_t Aggregator::target_count() const {
  std::scoped_lock lock(targets_mutex_);
  return targets_.size();
}

support::Result<std::string> Aggregator::fetch_text(
    const ScrapeTarget& target, const std::string& endpoint) {
  net::Client client(net_, host_);
  if (auto status = client.connect(target.address); !status.is_ok()) {
    return status;
  }
  auto reply = client.call_text(endpoint);
  client.close();
  return reply;
}

support::Result<MetricsSnapshot> Aggregator::scrape_target(
    const ScrapeTarget& target) {
  auto reply = fetch_text(target, "/metrics.wire");
  if (!reply.is_ok()) return reply.status();
  auto snapshot = MetricsSnapshot::from_wire(reply.value());
  if (!snapshot) {
    return support::Status(support::StatusCode::kInvalidArgument,
                           "malformed /metrics.wire reply from source '" +
                               target.source + "'");
  }
  return *std::move(snapshot);
}

MetricsSnapshot Aggregator::federate() {
  const std::vector<ScrapeTarget> targets = targets_copy();
  std::vector<std::optional<MetricsSnapshot>> scraped(targets.size());
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    const std::uint64_t start = now_us();
    auto result = scrape_target(targets[i]);
    PDC_OBS_HIST("pdc.fed.scrape_us", now_us() - start);
    if (result.is_ok()) {
      scraped[i] = std::move(result).value();
    } else {
      count_scrape_error();
    }
  });
  // Sources merge in target-declaration order (index-stable slots), not
  // completion order — part of the byte-stability contract.
  std::vector<SourceSnapshot> sources;
  sources.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scraped[i].has_value()) {
      sources.push_back({targets[i].source, std::move(*scraped[i])});
    }
  }
  const std::uint64_t merge_start = now_us();
  MetricsSnapshot merged = merge_federated(sources, config_.source_label);
  PDC_OBS_HIST("pdc.fed.merge_us", now_us() - merge_start);
  PDC_OBS_COUNT("pdc.fed.scrapes");
  return merged;
}

FoldedProfile Aggregator::federate_profiles() {
  const std::vector<ScrapeTarget> targets = targets_copy();
  std::vector<std::optional<FoldedProfile>> fetched(targets.size());
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    auto reply = fetch_text(targets[i], "/profile/folded");
    if (!reply.is_ok()) {
      count_scrape_error();
      return;
    }
    // NOOP ranks answer an error JSON; skip them.
    if (!is_error_answer(reply.value())) {
      fetched[i] = parse_folded(reply.value());
    }
  });
  FoldedProfile merged;
  const std::string stamp_prefix = config_.source_label + "=";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!fetched[i].has_value()) continue;
    for (const auto& [key, count] : *fetched[i]) {
      // Insert-if-absent stamping, same contract as merge_federated: a
      // stack already rooted at `<source_label>=...` came from a lower
      // aggregator tier and keeps its original attribution.
      if (key.rfind(stamp_prefix, 0) == 0) {
        merged[key] += count;
      } else {
        merged[stamp_prefix + targets[i].source + ";" + key] += count;
      }
    }
  }
  return merged;
}

std::vector<TraceSummary> Aggregator::federate_traces(std::size_t n) {
  const std::vector<ScrapeTarget> targets = targets_copy();
  std::vector<std::vector<TraceSummary>> fetched(targets.size());
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    auto reply = fetch_text(targets[i], "/trace/slowest.wire?n=" +
                                            std::to_string(n));
    if (!reply.is_ok()) {
      count_scrape_error();
      return;
    }
    // NOOP ranks and span-less servers answer an error JSON; skip them
    // like federate_profiles does.
    if (is_error_answer(reply.value())) return;
    if (auto traces = parse_traces_wire(reply.value())) {
      fetched[i] = std::move(*traces);
    } else {
      count_scrape_error();
    }
  });
  std::vector<TraceSummary> merged;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (TraceSummary& trace : fetched[i]) {
      // Insert-if-absent stamping: a trace already attributed by a lower
      // aggregator tier keeps its original source.
      if (trace.source.empty()) trace.source = targets[i].source;
      merged.push_back(std::move(trace));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              if (a.root_us != b.root_us) return a.root_us > b.root_us;
              if (a.source != b.source) return a.source < b.source;
              return a.trace_id < b.trace_id;
            });
  if (merged.size() > n) merged.resize(n);
  return merged;
}

std::vector<AlertWireRow> Aggregator::federate_alerts() {
  const std::vector<ScrapeTarget> targets = targets_copy();
  std::vector<std::vector<AlertWireRow>> fetched(targets.size());
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    auto reply = fetch_text(targets[i], "/alerts.wire");
    if (!reply.is_ok()) {
      count_scrape_error();
      return;
    }
    // NOOP ranks and monitor-less servers answer an error JSON; skip them
    // like federate_traces does.
    if (is_error_answer(reply.value())) return;
    if (auto rows = parse_alerts_wire(reply.value())) {
      fetched[i] = std::move(*rows);
    } else {
      count_scrape_error();
    }
  });
  std::vector<AlertWireRow> merged;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (AlertWireRow& row : fetched[i]) {
      // Insert-if-absent stamping: a row already attributed by a lower
      // aggregator tier keeps its original source.
      if (row.source.empty()) row.source = targets[i].source;
      merged.push_back(std::move(row));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const AlertWireRow& a, const AlertWireRow& b) {
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.source < b.source;
            });
  return merged;
}

std::size_t Aggregator::broadcast_control(const std::string& verb) {
  const std::vector<ScrapeTarget> targets = targets_copy();
  std::atomic<std::size_t> acked{0};
  parallel::fan_out(pool_, targets.size(), [&](std::size_t i) {
    auto reply = fetch_text(targets[i], verb);
    if (reply.is_ok() && reply.value().rfind("error", 0) != 0) {
      acked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return acked.load(std::memory_order_relaxed);
}

std::string Aggregator::topk_body(const std::string& endpoint) {
  const std::uint64_t n = endpoint_query_u64(endpoint, "n", 10);
  std::string by = endpoint_query(endpoint, "by");
  if (by.empty()) by = "value";
  if (by != "value" && by != "rate") {
    return "error: by must be 'value' or 'rate'\n";
  }
  const MetricsSnapshot merged = federate();
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  // Sorted names of series the rate cursor has not seen before this call
  // — their rate is undefined, reported as an explicit null warm-up
  // marker (never a raw total masquerading as a rate).
  std::vector<std::string> warming;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& s : merged.samples) {
    if (s.kind != MetricKind::kCounter) continue;
    totals.emplace(s.name, s.count);
  }
  if (by == "value") {
    entries.assign(totals.begin(), totals.end());
  } else {
    // Rate = increase since the previous ?by=rate call (server-wide
    // cursor). A series absent from the cursor has no defined rate yet.
    std::scoped_lock lock(rate_mutex_);
    for (const auto& [name, count] : totals) {
      auto it = rate_prev_.find(name);
      if (it == rate_prev_.end()) {
        warming.push_back(name);
      } else if (count > it->second) {
        entries.emplace_back(name, count - it->second);
      }
    }
    rate_prev_ = std::move(totals);
  }
  entries = top_k_by_value(std::move(entries), static_cast<std::size_t>(n));
  const char* value_key = by == "value" ? "\"value\":" : "\"rate\":";
  std::string out = "{\"by\":\"" + by + "\",\"n\":" + std::to_string(n) +
                    ",\"top\":[";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"series\":";
    // Canonical names can contain quotes (label blocks) — always escape.
    append_json_string(out, name);
    out += ",";
    out += value_key;
    out += std::to_string(value) + "}";
  }
  // Warm-up markers rank after every measured entry (name order), only
  // filling whatever of the top-k is left.
  for (const auto& name : warming) {
    if (entries.size() >= n) break;
    if (!first) out += ",";
    first = false;
    out += "{\"series\":";
    append_json_string(out, name);
    out += ",\"rate\":null}";
    entries.emplace_back(name, 0);  // count toward the k budget
  }
  out += "]}\n";
  return out;
}

std::string Aggregator::endpoint_body(const std::string& endpoint) {
  if (endpoint == "/healthz") {
    // Fleet health = the alert rollup: degraded while any federated rule
    // is firing somewhere. NOOP builds evaluate no rules and stay ok.
    const std::size_t firing =
        kObsEnabled ? firing_rules(federate_alerts()) : 0;
    return std::string("{\"status\":\"") + (firing > 0 ? "degraded" : "ok") +
           "\",\"firing\":" + std::to_string(firing) + "}\n";
  }
  if (endpoint == "/metrics") return prometheus_exposition(federate());
  if (endpoint == "/metrics.json" || endpoint == "snapshot-now") {
    return federate().to_json();
  }
  if (endpoint == "/metrics.wire") return federate().to_wire();
  if (endpoint.rfind("/metrics/topk", 0) == 0) return topk_body(endpoint);
  if (endpoint == "/profile/folded") {
    if (!kObsEnabled) return kProfilingDisabledJson;
    return render_folded(federate_profiles());
  }
  if (endpoint.rfind("/profile/contention", 0) == 0) {
    if (!kObsEnabled) return kProfilingDisabledJson;
    const std::uint64_t n = endpoint_query_u64(endpoint, "n", 10);
    return contention_json(contention_topk(
               federate(), static_cast<std::size_t>(n))) +
           "\n";
  }
  if (endpoint == "/trace/slowest.wire" ||
      endpoint.rfind("/trace/slowest.wire?", 0) == 0) {
    if (!kObsEnabled) return kTracingDisabledJson;
    const std::uint64_t n = endpoint_query_u64(endpoint, "n", 8);
    return trace_summaries_wire(
        federate_traces(static_cast<std::size_t>(n)));
  }
  if (endpoint == "/trace/slowest" ||
      endpoint.rfind("/trace/slowest?", 0) == 0) {
    if (!kObsEnabled) return kTracingDisabledJson;
    const std::uint64_t n = endpoint_query_u64(endpoint, "n", 8);
    const std::vector<TraceSummary> traces =
        federate_traces(static_cast<std::size_t>(n));
    std::string out = "{\"traces\":[";
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i != 0) out += ',';
      out += trace_json(traces[i]);
    }
    out += "]}\n";
    return out;
  }
  if (endpoint == "/alerts.wire") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    return render_alerts_wire(federate_alerts());
  }
  if (endpoint == "/alerts") {
    if (!kObsEnabled) return kTimeseriesDisabledJson;
    return alerts_rollup_json(federate_alerts());
  }
  if (endpoint == "reset") {
    const std::size_t acked = broadcast_control("reset");
    const std::size_t total = target_count();
    if (acked == total) return "ok\n";
    return "error: reset acked by " + std::to_string(acked) + "/" +
           std::to_string(total) + " targets\n";
  }
  if (endpoint.rfind("add-target", 0) == 0) {
    std::istringstream in(endpoint);
    std::string verb, source;
    int host = 0;
    std::uint16_t port = 0;
    in >> verb >> host >> port >> source;
    if (in.fail() || source.empty()) {
      return "error: usage add-target <host> <port> <source>\n";
    }
    add_target({net::Address{host, port}, source});
    return "ok\n";
  }
  if (endpoint.rfind("remove-target", 0) == 0) {
    std::istringstream in(endpoint);
    std::string verb, source;
    in >> verb >> source;
    if (source.empty()) return "error: usage remove-target <source>\n";
    if (!remove_target(source)) {
      return "error: no target with source '" + source + "'\n";
    }
    return "ok\n";
  }
  return "error: unknown endpoint '" + endpoint +
         "' (try /metrics, /metrics.json, /metrics.wire, /metrics/topk, "
         "/profile/folded, /profile/contention, /trace/slowest?n=K, "
         "/trace/slowest.wire?n=K, /alerts, /alerts.wire, /healthz, reset, "
         "snapshot-now, add-target, remove-target)\n";
}

}  // namespace pdc::obs
