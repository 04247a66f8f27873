// Scrape federation: cross-process aggregation of the telemetry plane.
//
// The paper's courses teach performance observation of *distributed*
// programs; a per-process /metrics endpoint only shows one rank. This
// module adds the operator tier:
//
//   rank 0  TelemetryServer ──┐
//   rank 1  TelemetryServer ──┤   Aggregator ── /metrics, /metrics.json,
//   rank 2  TelemetryServer ──┤   (scrape +      /metrics.wire, /healthz,
//   rank 3  TelemetryServer ──┘    merge)        reset, snapshot-now
//
// An Aggregator scrapes N TelemetryServer endpoints concurrently (the
// lock-free ThreadPool via parallel::fan_out — one in-flight scrape per
// runner), decodes each /metrics.wire reply, and merges:
//
//   counters    sum across sources
//   gauges      last-written value wins (source input order)
//   histograms  bucket-wise sum — exact, associative, and commutative
//               because every process shares the same power-of-two bucket
//               edges (no resolution loss, no rebinning)
//
// Every input series reappears stamped with a source label (default
// `rank="<source>"`), and each input key also feeds an *aggregate* series
// under its original labels, so the federated view answers both "what is
// the fleet-wide p99" and "which rank is the outlier". Stamping is
// insert-if-absent: a series that already carries the label — e.g. one
// produced by a lower Aggregator tier — keeps its original attribution,
// which is what lets Aggregators scrape other Aggregators (/metrics.wire
// is served by both).
//
// Determinism: merge output ordering comes from sorted MetricKey maps, so
// a fixed set of input snapshots produces one byte-stable result
// regardless of scrape completion order (golden test over a fixed-seed
// 4-rank sim in tests/obs_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "support/status.hpp"

namespace pdc::obs {

/// One federated input: the snapshot scraped from `source` (the value
/// stamped into the source label).
struct SourceSnapshot {
  std::string source;
  MetricsSnapshot snapshot;
};

/// Pure merge of per-source snapshots into one federated view (semantics
/// in the file comment). Exposed separately from Aggregator so merge
/// algebra is testable without a network.
[[nodiscard]] MetricsSnapshot merge_federated(
    const std::vector<SourceSnapshot>& sources,
    std::string_view source_label = "rank");

/// One scrape target: a telemetry endpoint plus the source-label value its
/// series are stamped with.
struct ScrapeTarget {
  net::Address address;
  std::string source;
};

struct AggregatorConfig {
  std::string source_label = "rank";
  net::ThreadingModel model = net::ThreadingModel::kThreadPerConnection;
  std::size_t workers = 2;         // worker-pool model only
  std::size_t scrape_threads = 3;  // fan-out pool for concurrent scrapes
};

/// Scrapes its target set on demand and re-exposes the merged view on its
/// own telemetry endpoints (/metrics, /metrics.json, /metrics.wire, and
/// /healthz — {"status":"ok|degraded","firing":N}, degraded when any
/// federated alert is firing), plus:
///
///   /metrics/topk?n=K&by=value|rate   top-K merged counter series as
///       JSON — by=value ranks totals ("value" field), by=rate ranks
///       deltas since the previous /metrics/topk?by=rate call
///       (server-wide cursor). A series the cursor has not seen yet has
///       no defined rate: it reports an explicit "rate":null warm-up
///       marker and ranks after every measured entry (never a raw total
///       masquerading as a rate)
///   /profile/folded   federated folded profile: each target's
///       /profile/folded, every stack rank-stamped with a
///       `<source_label>=<source>` root frame (insert-if-absent, so
///       aggregator tiers stack) and summed by key
///   /profile/contention?n=K   top-K contended sites over the *merged*
///       snapshot — pdc.contend.wait_us{site=} federates like any series
///   /trace/slowest?n=K        fleet-wide slowest kept traces as JSON:
///       each target's /trace/slowest.wire list, source-stamped
///       insert-if-absent, merged by root latency
///   /trace/slowest.wire?n=K   the same list in wire form, so aggregator
///       tiers federate traces the way they federate metrics
///   /alerts           fleet-wide alert rollup: every target's
///       /alerts.wire rows source-stamped insert-if-absent, grouped by
///       rule with a worst-state-wins summary (firing > pending >
///       resolved > inactive) over the per-source rows
///   /alerts.wire      the same rows in wire form, so aggregator tiers
///       federate alerts the way they federate metrics
///   reset             control verb, broadcast to every target
///   snapshot-now      immediate federated /metrics.json body
///   add-target <host> <port> <source>   hot-add a scrape target; it
///       appears in the next federated scrape
///   remove-target <source>              hot-remove by source value
///
/// Self-metrics (pdc.fed.*) go to the process-wide registry, never into
/// the federated output — unless a target happens to serve that registry.
class Aggregator {
 public:
  Aggregator(net::Network& net, int host, std::uint16_t port,
             std::vector<ScrapeTarget> targets, AggregatorConfig config = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  [[nodiscard]] net::Address address() const;

  /// Scrapes every target concurrently and merges. Unreachable targets
  /// are skipped (their series simply disappear from this round) and
  /// counted in pdc.fed.scrape_errors.
  [[nodiscard]] MetricsSnapshot federate();

  /// Federates the targets' /profile/folded bodies: rank-stamps each
  /// stack with a `<source_label>=<source>` root frame (unless already
  /// stamped) and sums by key. Targets answering an error JSON (NOOP
  /// ranks) are skipped; unreachable ones are skipped and counted in
  /// pdc.fed.scrape_errors.
  [[nodiscard]] FoldedProfile federate_profiles();

  /// Federates the targets' kept-trace lists: fetches each
  /// /trace/slowest.wire?n=N, stamps `source` on traces that carry none
  /// (insert-if-absent — a lower aggregator tier's attribution survives),
  /// merges, and returns the fleet-wide n slowest (root_us descending;
  /// ties broken by source then trace id, so the list is byte-stable).
  /// Targets answering an error JSON (NOOP ranks, no collector) are
  /// skipped; unreachable or unparseable ones are skipped and counted in
  /// pdc.fed.scrape_errors.
  [[nodiscard]] std::vector<TraceSummary> federate_traces(std::size_t n);

  /// Federates the targets' /alerts.wire rows: stamps `source` on rows
  /// that carry none (insert-if-absent — a lower aggregator tier's
  /// attribution survives) and returns them sorted by (rule, source).
  /// Targets answering an error JSON (NOOP ranks, no monitor) are
  /// skipped; unreachable or unparseable ones are skipped and counted in
  /// pdc.fed.scrape_errors.
  [[nodiscard]] std::vector<AlertWireRow> federate_alerts();

  /// Sends a control verb ("reset", "snapshot-now") to every target
  /// concurrently; returns how many targets acknowledged.
  std::size_t broadcast_control(const std::string& verb);

  /// Hot add/remove (also reachable as the add-target / remove-target
  /// control verbs): the change is visible to the next federate() round.
  /// remove_target returns false when no target matches `source`.
  void add_target(ScrapeTarget target);
  bool remove_target(std::string_view source);
  [[nodiscard]] std::size_t target_count() const;

  /// Stops accepting; existing connections finish their current request.
  void stop();

 private:
  [[nodiscard]] std::string endpoint_body(const std::string& endpoint);
  [[nodiscard]] std::string topk_body(const std::string& endpoint);
  [[nodiscard]] support::Result<std::string> fetch_text(
      const ScrapeTarget& target, const std::string& endpoint);
  [[nodiscard]] support::Result<MetricsSnapshot> scrape_target(
      const ScrapeTarget& target);
  [[nodiscard]] std::vector<ScrapeTarget> targets_copy() const;

  net::Network& net_;
  int host_;
  mutable std::mutex targets_mutex_;
  std::vector<ScrapeTarget> targets_;  // guarded by targets_mutex_
  AggregatorConfig config_;
  parallel::ThreadPool pool_;
  std::mutex rate_mutex_;
  // Previous /metrics/topk?by=rate counter totals (server-wide cursor).
  std::map<std::string, std::uint64_t> rate_prev_;
  std::unique_ptr<net::Server> server_;  // last member: threads start here
};

}  // namespace pdc::obs
