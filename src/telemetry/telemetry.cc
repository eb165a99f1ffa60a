#include "src/telemetry/telemetry.h"

#include "src/gpusim/device.h"

namespace orion {
namespace telemetry {

TrackId Hub::TraceKernels(gpusim::Device& device, const std::string& track_name) {
  const TrackId track = spans_.AddTrack(track_name);
  device.set_kernel_trace_sink([this, track](const gpusim::KernelExecRecord& record) {
    spans_.Complete(track, record.stream, record.name.str(), record.start, record.end,
                    {{"kernel_id", std::to_string(record.kernel_id)},
                     {"sm_needed", std::to_string(record.sm_needed)}},
                    "kernel");
  });
  return track;
}

}  // namespace telemetry
}  // namespace orion
