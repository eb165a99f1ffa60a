#include "src/telemetry/metrics.h"

#include "src/common/check.h"

namespace orion {
namespace telemetry {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string MetricRegistry::EncodeKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += labels[i].first;
      key += '=';
      key += labels[i].second;
    }
    key += '}';
  }
  return key;
}

MetricRegistry::Metric* MetricRegistry::GetOrCreate(const std::string& name,
                                                    const Labels& labels, MetricKind kind) {
  const std::string key = EncodeKey(name, labels);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    ORION_CHECK_MSG(it->second->kind == kind,
                    "metric " << key << " already registered as "
                              << MetricKindName(it->second->kind));
    return it->second.get();
  }
  auto metric = std::make_unique<Metric>();
  metric->name = name;
  metric->labels = labels;
  metric->kind = kind;
  Metric* raw = metric.get();
  metrics_.emplace(key, std::move(metric));
  return raw;
}

const MetricRegistry::Metric* MetricRegistry::Find(const std::string& name,
                                                   const Labels& labels) const {
  const std::string key = EncodeKey(name, labels);
  auto it = metrics_.find(key);
  return it != metrics_.end() ? it->second.get() : nullptr;
}

Counter* MetricRegistry::GetCounter(const std::string& name, const Labels& labels) {
  return &GetOrCreate(name, labels, MetricKind::kCounter)->counter;
}

Gauge* MetricRegistry::GetGauge(const std::string& name, const Labels& labels) {
  return &GetOrCreate(name, labels, MetricKind::kGauge)->gauge;
}

Histogram* MetricRegistry::GetHistogram(const std::string& name, const Labels& labels) {
  return &GetOrCreate(name, labels, MetricKind::kHistogram)->histogram;
}

double MetricRegistry::CounterValue(const std::string& name, const Labels& labels) const {
  const Metric* metric = Find(name, labels);
  return metric != nullptr && metric->kind == MetricKind::kCounter ? metric->counter.value()
                                                                   : 0.0;
}

double MetricRegistry::GaugeValue(const std::string& name, const Labels& labels) const {
  const Metric* metric = Find(name, labels);
  return metric != nullptr && metric->kind == MetricKind::kGauge ? metric->gauge.value() : 0.0;
}

const Histogram* MetricRegistry::FindHistogram(const std::string& name,
                                               const Labels& labels) const {
  const Metric* metric = Find(name, labels);
  return metric != nullptr && metric->kind == MetricKind::kHistogram ? &metric->histogram
                                                                     : nullptr;
}

std::vector<MetricRow> MetricRegistry::Snapshot() const {
  std::vector<MetricRow> rows;
  rows.reserve(metrics_.size());
  for (const auto& [key, metric] : metrics_) {
    (void)key;
    MetricRow row;
    row.name = metric->name;
    row.labels = metric->labels;
    row.kind = metric->kind;
    switch (metric->kind) {
      case MetricKind::kCounter:
        row.value = metric->counter.value();
        break;
      case MetricKind::kGauge:
        row.value = metric->gauge.value();
        break;
      case MetricKind::kHistogram: {
        const LatencyRecorder& window = metric->histogram.window();
        row.count = window.count();
        row.value = window.mean();
        row.p50 = window.p50();
        row.p95 = window.p95();
        row.p99 = window.p99();
        row.min = window.min();
        row.max = window.max();
        for (const double sample : window.samples()) {
          row.sum += sample;
        }
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void MetricRegistry::ResetWindows() {
  for (auto& [key, metric] : metrics_) {
    (void)key;
    if (metric->kind == MetricKind::kHistogram) {
      metric->histogram.ResetWindow();
    }
  }
}

}  // namespace telemetry
}  // namespace orion
