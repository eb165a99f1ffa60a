// Chrome-trace (about://tracing / Perfetto) export of kernel execution
// records. Each kernel becomes a complete event ("ph":"X") on a track per
// stream, making collocation schedules visually inspectable — which kernels
// overlapped, where the scheduler throttled, where the GPU idled.
#ifndef SRC_GPUSIM_TRACE_EXPORT_H_
#define SRC_GPUSIM_TRACE_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/gpusim/device.h"

namespace orion {
namespace gpusim {

// Collects execution records from any number of devices (one track each,
// install via RecordInto) and serialises them in the Chrome trace-event JSON
// array format: one Chrome "process" per device track, one "thread" per
// stream. A multi-GPU run therefore exports a single merged trace instead of
// one file per device.
class TraceCollector {
 public:
  // Installs this collector as `device`'s kernel trace sink, adding a track.
  // An empty name defaults to "gpu<track index>". May be called once per
  // device for any number of devices; the collector must outlive the
  // devices' use. Returns the track index.
  int RecordInto(Device& device, const std::string& track_name = "");

  const std::vector<std::string>& track_names() const { return track_names_; }

  // One collected record with the track it belongs to, in completion order
  // across all devices (the simulator's deterministic event order).
  struct Entry {
    int track = 0;
    KernelExecRecord record;
  };
  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  // Chrome trace-event format: a JSON array of {"name","ph":"X","ts","dur",
  // "pid","tid"} events, timestamps in µs, one pid per track (offset by
  // `pid_base`). Loadable by chrome://tracing and https://ui.perfetto.dev.
  void WriteChromeTrace(std::ostream& os) const;

  // Emits the same events without the surrounding "[" / "]" so other
  // exporters (src/telemetry) can merge kernel tracks into a larger trace.
  // Returns the number of events written; `first` tracks comma placement.
  std::size_t WriteChromeTraceEvents(std::ostream& os, int pid_base, bool* first) const;

 private:
  // Appends a named track; "gpu<track index>" when the name is empty.
  int AddTrack(const std::string& track_name);

  std::vector<std::string> track_names_;
  std::vector<Entry> entries_;
};

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_TRACE_EXPORT_H_
