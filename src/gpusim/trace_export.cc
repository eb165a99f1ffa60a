#include "src/gpusim/trace_export.h"

#include <cstdio>
#include <ostream>

namespace orion {
namespace gpusim {
namespace {

// Minimal JSON string escaping for kernel names (quotes, backslashes,
// control characters).
void WriteJsonString(std::ostream& os, const std::string& value) {
  os << '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

int TraceCollector::AddTrack(const std::string& track_name) {
  const int track = static_cast<int>(track_names_.size());
  track_names_.push_back(track_name.empty() ? "gpu" + std::to_string(track) : track_name);
  return track;
}

int TraceCollector::RecordInto(Device& device, const std::string& track_name) {
  const int track = AddTrack(track_name);
  device.set_kernel_trace_sink([this, track](const KernelExecRecord& record) {
    entries_.push_back(Entry{track, record});
  });
  return track;
}

std::size_t TraceCollector::WriteChromeTraceEvents(std::ostream& os, int pid_base,
                                                   bool* first) const {
  std::size_t written = 0;
  for (std::size_t track = 0; track < track_names_.size(); ++track) {
    if (!*first) {
      os << ",";
    }
    *first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << pid_base + static_cast<int>(track) << ",\"args\":{\"name\":";
    WriteJsonString(os, track_names_[track]);
    os << "}}";
    ++written;
  }
  for (const Entry& entry : entries_) {
    const KernelExecRecord& record = entry.record;
    if (!*first) {
      os << ",";
    }
    *first = false;
    os << "\n{\"name\":";
    WriteJsonString(os, record.name.str());
    os << ",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":" << record.start
       << ",\"dur\":" << (record.end - record.start) << ",\"pid\":" << pid_base + entry.track
       << ",\"tid\":" << record.stream << ",\"args\":{\"kernel_id\":" << record.kernel_id
       << ",\"sm_needed\":" << record.sm_needed << "}}";
    ++written;
  }
  return written;
}

void TraceCollector::WriteChromeTrace(std::ostream& os) const {
  os << "[";
  bool first = true;
  if (track_names_.empty()) {
    // Legacy shape: an empty collector still emits a (single) track header.
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"gpu\"}}";
    first = false;
  }
  WriteChromeTraceEvents(os, /*pid_base=*/0, &first);
  os << "\n]\n";
}

}  // namespace gpusim
}  // namespace orion
