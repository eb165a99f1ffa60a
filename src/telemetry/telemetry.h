// Unified telemetry hub: one handle bundling the metric registry, the
// cross-layer span tracer and the latency attribution registry.
//
// A harness or bench creates one Hub per run and passes it down through the
// configs (ExperimentConfig / MultiGpuConfig / ServingConfig all carry a
// `telemetry::Hub*`, null by default). Layers instrument against the hub:
//
//   * counters/gauges/histograms → hub->metrics()  (always cheap)
//   * spans / instants / flows   → hub->spans()    (only when tracing())
//   * kernel execution records   → hub->TraceKernels(device, ...) (installed
//     by harnesses onto every simulated device when tracing is enabled)
//
// The null-object default keeps instrumentation zero-cost: every site guards
// on `hub == nullptr` (no sink installed) and on `hub->tracing()` for span
// emission, so an uninstrumented run does no string formatting and allocates
// nothing. No wall-clock is ever read — all timestamps come from the
// discrete-event simulator — so same-seed runs export byte-identical traces.
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <string>

#include "src/telemetry/attribution/report.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"

namespace orion {
namespace gpusim {
class Device;
}  // namespace gpusim

namespace telemetry {

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  SpanTracer& spans() { return spans_; }
  const SpanTracer& spans() const { return spans_; }

  // Installs `device`'s kernel trace sink: each kernel execution becomes a
  // "kernel" Complete slice on a new track named `track_name`, one row per
  // stream. Every call appends a track, so two runs recorded into one hub
  // never share a lane. The hub must outlive the device's use.
  TrackId TraceKernels(gpusim::Device& device, const std::string& track_name);

  // Span/kernel collection is opt-in (metrics are always on): benches enable
  // it when a --trace-out path was given, tests when they assert on spans.
  void EnableTracing() { tracing_ = true; }
  bool tracing() const { return tracing_; }

  attribution::AttributionRegistry& attribution() { return attribution_; }
  const attribution::AttributionRegistry& attribution() const { return attribution_; }

  // Per-request latency attribution is opt-in like tracing: when disabled the
  // engines never touch a request's LatencyLedger, so runs stay bit-identical
  // to an uninstrumented build at zero cost.
  void EnableAttribution() { attribution_enabled_ = true; }
  bool attribution_enabled() const { return attribution_enabled_; }

 private:
  MetricRegistry metrics_;
  SpanTracer spans_;
  attribution::AttributionRegistry attribution_;
  bool tracing_ = false;
  bool attribution_enabled_ = false;
};

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_TELEMETRY_H_
