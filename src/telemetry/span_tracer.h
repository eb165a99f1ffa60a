// Cross-layer trace spans on the discrete-event clock.
//
// Records hierarchical spans, instant markers and flow links for export in
// the Chrome trace-event format (exporters.h). Each *track* is a Chrome
// "process" (one lane group in Perfetto): a serving model's request
// lifecycles, a GPU's batch executions or kernels, the collective engine,
// the fabric, the fault injector. Within a track, the `tid` picks the row —
// a replica, a stream, or a per-request virtual thread.
//
// Event kinds map 1:1 onto Chrome trace phases:
//   * Complete  → "X": a slice with explicit start and end (request phases,
//     batch executions). Slices on one (track, tid) must nest.
//   * AsyncBegin/AsyncEnd → "b"/"e": id-matched spans that may overlap
//     freely (collectives, fabric transfers).
//   * Instant   → "i": a point marker (fault injected, quarantine, scale-up).
//   * FlowStart/FlowEnd → "s"/"f": an id-matched arrow between two slices
//     (serving request → the device batch that served it).
//
// Timestamps are caller-provided sim-time µs — the tracer never reads a
// wall clock — so same-seed runs export byte-identical traces.
#ifndef SRC_TELEMETRY_SPAN_TRACER_H_
#define SRC_TELEMETRY_SPAN_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time_types.h"
#include "src/telemetry/metrics.h"  // Labels

namespace orion {
namespace telemetry {

using TrackId = int;

enum class TraceEventKind : std::uint8_t {
  kComplete,
  kAsyncBegin,
  kAsyncEnd,
  kInstant,
  kFlowStart,
  kFlowEnd,
};

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kComplete;
  TrackId track = 0;
  std::int64_t tid = 0;
  std::string name;
  std::string category;
  TimeUs ts = 0.0;
  DurationUs dur = 0.0;    // kComplete only
  std::uint64_t id = 0;    // async span / flow id
  Labels args;
};

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Finds the named track, or appends it. Track order is registration order;
  // the exporter assigns pids from it deterministically.
  TrackId Track(const std::string& name);
  // Always appends a new track, even when one of that name exists (one per
  // traced device, so two runs into one hub never share a lane).
  TrackId AddTrack(const std::string& name);

  void Complete(TrackId track, std::int64_t tid, const std::string& name, TimeUs start,
                TimeUs end, Labels args = {}, const std::string& category = "span");
  void AsyncBegin(TrackId track, std::uint64_t id, const std::string& name, TimeUs ts,
                  Labels args = {}, const std::string& category = "async");
  void AsyncEnd(TrackId track, std::uint64_t id, const std::string& name, TimeUs ts,
                Labels args = {}, const std::string& category = "async");
  void Instant(TrackId track, const std::string& name, TimeUs ts, Labels args = {},
               const std::string& category = "marker");
  // Flow arrows: a start bound to the slice enclosing `ts` on (track, tid)
  // and an id-matched finish bound likewise at the consumer.
  void FlowStart(TrackId track, std::int64_t tid, std::uint64_t flow_id, TimeUs ts,
                 const std::string& name = "flow");
  void FlowEnd(TrackId track, std::int64_t tid, std::uint64_t flow_id, TimeUs ts,
               const std::string& name = "flow");

  const std::vector<std::string>& tracks() const { return tracks_; }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<std::string> tracks_;
  std::vector<TraceEvent> events_;  // insertion (sim-event) order
};

}  // namespace telemetry
}  // namespace orion

#endif  // SRC_TELEMETRY_SPAN_TRACER_H_
