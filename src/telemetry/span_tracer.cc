#include "src/telemetry/span_tracer.h"

#include <utility>

namespace orion {
namespace telemetry {

TrackId SpanTracer::Track(const std::string& name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) {
      return static_cast<TrackId>(i);
    }
  }
  return AddTrack(name);
}

TrackId SpanTracer::AddTrack(const std::string& name) {
  tracks_.push_back(name);
  return static_cast<TrackId>(tracks_.size() - 1);
}

void SpanTracer::Complete(TrackId track, std::int64_t tid, const std::string& name,
                          TimeUs start, TimeUs end, Labels args,
                          const std::string& category) {
  TraceEvent event;
  event.kind = TraceEventKind::kComplete;
  event.track = track;
  event.tid = tid;
  event.name = name;
  event.category = category;
  event.ts = start;
  event.dur = end - start;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void SpanTracer::AsyncBegin(TrackId track, std::uint64_t id, const std::string& name,
                            TimeUs ts, Labels args, const std::string& category) {
  TraceEvent event;
  event.kind = TraceEventKind::kAsyncBegin;
  event.track = track;
  event.id = id;
  event.name = name;
  event.category = category;
  event.ts = ts;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void SpanTracer::AsyncEnd(TrackId track, std::uint64_t id, const std::string& name,
                          TimeUs ts, Labels args, const std::string& category) {
  TraceEvent event;
  event.kind = TraceEventKind::kAsyncEnd;
  event.track = track;
  event.id = id;
  event.name = name;
  event.category = category;
  event.ts = ts;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void SpanTracer::Instant(TrackId track, const std::string& name, TimeUs ts, Labels args,
                         const std::string& category) {
  TraceEvent event;
  event.kind = TraceEventKind::kInstant;
  event.track = track;
  event.name = name;
  event.category = category;
  event.ts = ts;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void SpanTracer::FlowStart(TrackId track, std::int64_t tid, std::uint64_t flow_id,
                           TimeUs ts, const std::string& name) {
  TraceEvent event;
  event.kind = TraceEventKind::kFlowStart;
  event.track = track;
  event.tid = tid;
  event.id = flow_id;
  event.name = name;
  event.category = "flow";
  event.ts = ts;
  events_.push_back(std::move(event));
}

void SpanTracer::FlowEnd(TrackId track, std::int64_t tid, std::uint64_t flow_id, TimeUs ts,
                         const std::string& name) {
  TraceEvent event;
  event.kind = TraceEventKind::kFlowEnd;
  event.track = track;
  event.tid = tid;
  event.id = flow_id;
  event.name = name;
  event.category = "flow";
  event.ts = ts;
  events_.push_back(std::move(event));
}

}  // namespace telemetry
}  // namespace orion
