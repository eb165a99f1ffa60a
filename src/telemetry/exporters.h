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

#include "src/telemetry/telemetry.h"

namespace orion {
namespace telemetry {

void WriteMetricsCsv(const MetricRegistry& metrics, std::ostream& os);

void WriteChromeTrace(const SpanTracer& spans, std::ostream& os);

// File-writing convenience used by the bench binaries; aborts on I/O errors
// (a bench asked to export must not silently drop the artefact).
void ExportMetricsCsv(const MetricRegistry& metrics, const std::string& path);
void ExportChromeTrace(const SpanTracer& spans, const std::string& path);

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_EXPORTERS_H_
