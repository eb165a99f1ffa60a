// Telemetry exporters: CSV metric snapshots and merged Chrome/Perfetto
// traces.
//
// WriteMetricsCsv renders a MetricRegistry snapshot as one CSV row per
// metric (counters and gauges fill `value`; histograms fill the
// count/mean/percentile columns from their current window).
//
// WriteChromeTrace renders the SpanTracer as one JSON array loadable by
// chrome://tracing and https://ui.perfetto.dev: one Chrome process per span
// track, pids in registration order. Kernel executions are "kernel" slices on
// per-device tracks (Hub::TraceKernels), so request lifecycles, scheduler
// decisions, collectives, fabric transfers and fault markers share one
// timeline with the kernels they explain.
//
// Both exporters are deterministic: rows are sorted, events keep the
// simulator's event order, and timestamps are printed with fixed precision.
#ifndef SRC_TELEMETRY_EXPORTERS_H_
#define SRC_TELEMETRY_EXPORTERS_H_

#include <iosfwd>
#include <string>

#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace telemetry {

void WriteMetricsCsv(const MetricRegistry& metrics, std::ostream& os);

void WriteChromeTrace(const SpanTracer& spans, std::ostream& os);

// File-writing convenience used by the bench binaries; aborts on I/O errors
// (a bench asked to export must not silently drop the artefact).
void ExportMetricsCsv(const MetricRegistry& metrics, const std::string& path);
void ExportChromeTrace(const SpanTracer& spans, const std::string& path);

// Streaming telemetry export: periodically rewrites the --trace-out /
// --metrics-out artefacts DURING a long run instead of only at its end, so a
// multi-hour sweep can be inspected (or salvaged after a crash) mid-flight.
// Each flush truncates and rewrites the file with the hub's state so far —
// both exporters emit self-contained snapshots, so the file is valid after
// every flush. Flushes ride the discrete-event clock and only read the hub;
// they never perturb the simulation (same-seed runs stay bit-identical with
// or without a streamer attached).
class StreamingExporter {
 public:
  struct Options {
    DurationUs period_us = 0.0;  // 0 = disabled (Start() is a no-op)
    std::string trace_path;      // empty = skip trace flushes
    std::string metrics_path;    // empty = skip metrics flushes
  };

  StreamingExporter(Simulator* sim, const Hub* hub, Options options);
  StreamingExporter(const StreamingExporter&) = delete;
  StreamingExporter& operator=(const StreamingExporter&) = delete;
  ~StreamingExporter();

  // Schedules the first flush one period from now.
  void Start();
  // Cancels the pending flush (the destructor also stops).
  void Stop();

  std::size_t flushes() const { return flushes_; }

 private:
  void Flush();

  Simulator* sim_;
  const Hub* hub_;
  Options options_;
  EventHandle next_flush_;
  std::size_t flushes_ = 0;
};

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_EXPORTERS_H_
