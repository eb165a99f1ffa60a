#include "src/telemetry/exporters.h"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "src/common/check.h"

namespace orion {
namespace telemetry {
namespace {

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

// Fixed-precision number formatting: locale-independent and byte-stable
// across same-seed runs (ostream default formatting depends on precision
// state; CSV/trace determinism is a tested property).
std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return std::string(buf);
}

std::string Ts(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return std::string(buf);
}

// CSV field quoting: wrap in quotes when the field contains a delimiter.
void WriteCsvField(std::ostream& os, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    os << field;
    return;
  }
  os << '"';
  for (const char c : field) {
    if (c == '"') {
      os << '"';
    }
    os << c;
  }
  os << '"';
}

void WriteArgs(std::ostream& os, const Labels& args) {
  os << "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteJsonString(os, args[i].first);
    os << ":";
    WriteJsonString(os, args[i].second);
  }
  os << "}";
}

}  // namespace

void WriteChromeTrace(const SpanTracer& spans, std::ostream& os) {
  os << "[";
  bool first = true;
  for (std::size_t track = 0; track < spans.tracks().size(); ++track) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << track
       << ",\"args\":{\"name\":";
    WriteJsonString(os, spans.tracks()[track]);
    os << "}}";
  }
  for (const TraceEvent& event : spans.events()) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":";
    WriteJsonString(os, event.name);
    os << ",\"cat\":";
    WriteJsonString(os, event.category);
    os << ",\"pid\":" << event.track << ",\"ts\":" << Ts(event.ts);
    switch (event.kind) {
      case TraceEventKind::kComplete:
        os << ",\"tid\":" << event.tid << ",\"ph\":\"X\",\"dur\":" << Ts(event.dur);
        break;
      // Async ids are process-scoped ("id2":{"local":...}): two tracks that
      // each number their spans from 0 never pair each other's begin and end.
      case TraceEventKind::kAsyncBegin:
        os << ",\"tid\":0,\"ph\":\"b\",\"id2\":{\"local\":" << event.id << "}";
        break;
      case TraceEventKind::kAsyncEnd:
        os << ",\"tid\":0,\"ph\":\"e\",\"id2\":{\"local\":" << event.id << "}";
        break;
      case TraceEventKind::kInstant:
        os << ",\"tid\":0,\"ph\":\"i\",\"s\":\"p\"";
        break;
      case TraceEventKind::kFlowStart:
        os << ",\"tid\":" << event.tid << ",\"ph\":\"s\",\"id\":" << event.id;
        break;
      case TraceEventKind::kFlowEnd:
        os << ",\"tid\":" << event.tid << ",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << event.id;
        break;
    }
    if (!event.args.empty()) {
      os << ",\"args\":";
      WriteArgs(os, event.args);
    }
    os << "}";
  }
  os << (first ? "]\n" : "\n]\n");
}

void WriteMetricsCsv(const MetricRegistry& metrics, std::ostream& os) {
  os << "metric,labels,kind,value,count,p50,p95,p99,min,max,sum\n";
  for (const MetricRow& row : metrics.Snapshot()) {
    WriteCsvField(os, row.name);
    os << ",";
    std::string labels;
    for (std::size_t i = 0; i < row.labels.size(); ++i) {
      if (i > 0) {
        labels += ';';
      }
      labels += row.labels[i].first + "=" + row.labels[i].second;
    }
    WriteCsvField(os, labels);
    os << "," << MetricKindName(row.kind) << "," << Num(row.value);
    if (row.kind == MetricKind::kHistogram) {
      os << "," << row.count << "," << Num(row.p50) << "," << Num(row.p95) << ","
         << Num(row.p99) << "," << Num(row.min) << "," << Num(row.max) << ","
         << Num(row.sum);
    } else {
      os << ",,,,,,,";
    }
    os << "\n";
  }
}

void ExportMetricsCsv(const MetricRegistry& metrics, const std::string& path) {
  std::ofstream os(path);
  ORION_CHECK_MSG(os.good(), "cannot open metrics output file " << path);
  WriteMetricsCsv(metrics, os);
  ORION_CHECK_MSG(os.good(), "failed writing metrics to " << path);
}

void ExportChromeTrace(const SpanTracer& spans, const std::string& path) {
  std::ofstream os(path);
  ORION_CHECK_MSG(os.good(), "cannot open trace output file " << path);
  WriteChromeTrace(spans, os);
  ORION_CHECK_MSG(os.good(), "failed writing trace to " << path);
}

}  // namespace telemetry
}  // namespace orion
