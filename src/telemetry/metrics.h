// Metric registry: labeled counters, gauges and per-window histograms.
//
// One registry per run is the shared structured sink the ROADMAP asks for:
// every layer (scheduler, serving engine, collective engine, fault injector,
// harness) registers its counters here instead of hand-rolling private result
// fields, and the exporters (exporters.h) turn a snapshot into CSV rows.
//
// Semantics:
//   * A metric is identified by (name, labels). GetCounter/GetGauge/
//     GetHistogram return a stable pointer — the same (name, labels) pair
//     always yields the same object, so instrumentation sites can bind once
//     and increment without lookups on the hot path.
//   * Counters only grow; gauges are set/added freely; histograms record a
//     resettable measurement window (exact percentiles via LatencyRecorder)
//     plus whole-run streaming moments (OnlineStats), so windows can be
//     snapshotted at sim-time boundaries without losing lifetime stats.
//   * Everything is deterministic: registration order does not affect
//     Snapshot(), which sorts by (name, labels).
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace orion {
namespace telemetry {

// Ordered key=value pairs attached to a metric (and to trace-span args).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing count (events, requests, bytes).
class Counter {
 public:
  void Inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }
  // Convenience for counters that count discrete events.
  std::uint64_t AsCount() const { return static_cast<std::uint64_t>(std::llround(value_)); }

 private:
  double value_ = 0.0;
};

// Point-in-time value (replicas active, bytes resident, utilization).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Distribution with a resettable window (exact percentiles) and whole-run
// streaming moments that survive window resets.
class Histogram {
 public:
  void Add(double value) {
    window_.Add(value);
    lifetime_.Add(value);
  }
  const LatencyRecorder& window() const { return window_; }
  const OnlineStats& lifetime() const { return lifetime_; }
  void ResetWindow() { window_ = LatencyRecorder(); }

 private:
  LatencyRecorder window_;
  OnlineStats lifetime_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// Flat, export-friendly view of one metric at snapshot time.
struct MetricRow {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;      // counter / gauge value; histogram window mean
  std::size_t count = 0;   // histogram window sample count
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // histogram window percentiles
  double min = 0.0, max = 0.0, sum = 0.0;  // histogram window extremes / total
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Stable pointers, valid for the registry's lifetime. Re-registering the
  // same (name, labels) returns the existing instrument; registering it as a
  // different kind aborts (one name, one kind).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  // Lookup without creating; 0.0 / nullptr when absent (tests, finalizers).
  double CounterValue(const std::string& name, const Labels& labels = {}) const;
  double GaugeValue(const std::string& name, const Labels& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name, const Labels& labels = {}) const;

  // Deterministic snapshot, sorted by (name, labels).
  std::vector<MetricRow> Snapshot() const;

  // Sim-time window boundary: resets every histogram's window recorder
  // (lifetime moments, counters and gauges are untouched).
  void ResetWindows();

  std::size_t size() const { return metrics_.size(); }

  // Canonical "name{k=v,...}" encoding used as the registry key and by the
  // CSV exporter's labels column.
  static std::string EncodeKey(const std::string& name, const Labels& labels);

 private:
  struct Metric {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Metric* GetOrCreate(const std::string& name, const Labels& labels, MetricKind kind);
  const Metric* Find(const std::string& name, const Labels& labels) const;

  // Keyed by EncodeKey → sorted iteration is deterministic and label-stable.
  // The map stores unique_ptrs, so returned instrument pointers stay stable.
  std::map<std::string, std::unique_ptr<Metric>> metrics_;
};

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_METRICS_H_
