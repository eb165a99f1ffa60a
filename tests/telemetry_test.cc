// Telemetry subsystem tests: metric registry semantics, span tracer
// recording, exporter output shape (CSV + Chrome trace JSON), kernel slices
// recorded through Hub::TraceKernels, golden-file stability of the trace
// format, and byte-identical determinism of a traced end-to-end serving run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
#include "src/serving/serving.h"
#include "src/sim/simulator.h"
#include "src/telemetry/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span_tracer.h"
#include "src/telemetry/telemetry.h"
#include "tests/test_util.h"

namespace orion {
namespace telemetry {
namespace {

// --- Metric registry. ---

TEST(MetricRegistryTest, CountersAreStableAndLabelled) {
  MetricRegistry registry;
  Counter* plain = registry.GetCounter("requests");
  Counter* labelled = registry.GetCounter("requests", {{"service", "resnet"}});
  EXPECT_NE(plain, labelled);  // labels distinguish instruments
  plain->Inc();
  plain->Inc(2.5);
  labelled->Inc();
  // Re-registering the same (name, labels) returns the same object.
  EXPECT_EQ(registry.GetCounter("requests"), plain);
  EXPECT_EQ(registry.GetCounter("requests", {{"service", "resnet"}}), labelled);
  EXPECT_DOUBLE_EQ(registry.CounterValue("requests"), 3.5);
  EXPECT_DOUBLE_EQ(registry.CounterValue("requests", {{"service", "resnet"}}), 1.0);
  // Lookup of an absent metric reads 0 without creating it.
  EXPECT_DOUBLE_EQ(registry.CounterValue("absent"), 0.0);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricRegistryTest, KindCollisionAborts) {
  MetricRegistry registry;
  registry.GetCounter("x");
  EXPECT_DEATH(registry.GetGauge("x"), "kind");
}

TEST(MetricRegistryTest, SnapshotIsSortedRegardlessOfRegistrationOrder) {
  MetricRegistry a;
  a.GetCounter("zz");
  a.GetGauge("aa");
  a.GetCounter("mm", {{"k", "2"}});
  a.GetCounter("mm", {{"k", "1"}});
  const auto rows = a.Snapshot();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "aa");
  EXPECT_EQ(rows[1].name, "mm");
  EXPECT_EQ(rows[1].labels, (Labels{{"k", "1"}}));
  EXPECT_EQ(rows[2].name, "mm");
  EXPECT_EQ(rows[2].labels, (Labels{{"k", "2"}}));
  EXPECT_EQ(rows[3].name, "zz");
}

TEST(MetricRegistryTest, EncodeKeyIsCanonical) {
  EXPECT_EQ(MetricRegistry::EncodeKey("m", {}), "m");
  EXPECT_EQ(MetricRegistry::EncodeKey("m", {{"a", "1"}, {"b", "2"}}), "m{a=1,b=2}");
}

// --- Span tracer. ---

TEST(SpanTracerTest, TracksDeduplicateInRegistrationOrder) {
  SpanTracer tracer;
  const TrackId a = tracer.Track("alpha");
  const TrackId b = tracer.Track("beta");
  EXPECT_EQ(tracer.Track("alpha"), a);  // same name, same id
  EXPECT_NE(a, b);
  ASSERT_EQ(tracer.tracks().size(), 2u);
  EXPECT_EQ(tracer.tracks()[0], "alpha");
  EXPECT_EQ(tracer.tracks()[1], "beta");
}

TEST(SpanTracerTest, RecordsNestedSlicesAndMarkers) {
  SpanTracer tracer;
  const TrackId t = tracer.Track("requests");
  // Outer request slice with nested queue + execute phases on one row.
  tracer.Complete(t, /*tid=*/7, "request", 0.0, 100.0, {{"slo_met", "1"}}, "request");
  tracer.Complete(t, 7, "queue", 0.0, 40.0, {}, "queue");
  tracer.Complete(t, 7, "execute", 40.0, 100.0, {}, "execute");
  tracer.Instant(t, "shed", 55.0, {{"service", "svc"}});
  ASSERT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.events()[0].kind, TraceEventKind::kComplete);
  EXPECT_EQ(tracer.events()[0].tid, 7);
  EXPECT_DOUBLE_EQ(tracer.events()[0].dur, 100.0);
  EXPECT_EQ(tracer.events()[3].kind, TraceEventKind::kInstant);
}

// --- Exporters. ---

TEST(ExporterTest, FlowArrowsPairUpInJson) {
  SpanTracer tracer;
  const TrackId src = tracer.Track("service");
  const TrackId dst = tracer.Track("gpu0");
  tracer.Complete(src, 1, "execute", 10.0, 50.0);
  tracer.Complete(dst, 0, "batch", 12.0, 48.0);
  tracer.FlowStart(src, 1, /*flow_id=*/42, 10.0);
  tracer.FlowEnd(dst, 0, 42, 12.0);
  std::ostringstream os;
  WriteChromeTrace(tracer, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);  // bind to enclosing slice
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
}

TEST(ExporterTest, CsvHasHeaderAndSortedRows) {
  MetricRegistry registry;
  registry.GetCounter("b.count")->Inc(3.0);
  registry.GetGauge("a.gauge", {{"gpu", "0"}})->Set(1.5);
  Histogram* h = registry.GetHistogram("c.latency_us");
  h->Add(100.0);
  h->Add(200.0);
  std::ostringstream os;
  WriteMetricsCsv(registry, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("metric,labels,kind,value,count,p50,p95,p99,min,max,sum\n", 0), 0u);
  const std::size_t a = csv.find("a.gauge,gpu=0,gauge,1.5");
  const std::size_t b = csv.find("b.count,,counter,3");
  const std::size_t c = csv.find("c.latency_us,,histogram,150,2,");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  EXPECT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// --- Kernel slices (Hub::TraceKernels). ---

// The "kernel" Complete slices a hub holds, in completion order.
std::vector<TraceEvent> KernelSlices(const Hub& hub) {
  std::vector<TraceEvent> kernels;
  for (const TraceEvent& event : hub.spans().events()) {
    if (event.category == "kernel") {
      kernels.push_back(event);
    }
  }
  return kernels;
}

std::string Json(const Hub& hub) {
  std::ostringstream os;
  WriteChromeTrace(hub.spans(), os);
  return os.str();
}

TEST(KernelTraceTest, EachKernelIsASliceOnItsStreamRow) {
  Hub hub;
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  const TrackId track = hub.TraceKernels(device, "test-gpu");
  const gpusim::StreamId s1 = device.CreateStream();
  const gpusim::StreamId s2 = device.CreateStream();
  device.LaunchKernel(s1, testutil::MakeKernel("alpha", 100.0, 0.5, 0.2, 10));
  device.LaunchKernel(s2, testutil::MakeKernel("beta", 50.0, 0.2, 0.5, 10));
  sim.RunUntilIdle();
  const std::vector<TraceEvent> kernels = KernelSlices(hub);
  ASSERT_EQ(kernels.size(), 2u);
  for (const TraceEvent& k : kernels) {
    EXPECT_EQ(k.kind, TraceEventKind::kComplete);
    EXPECT_EQ(k.track, track);
    EXPECT_EQ(k.tid, k.name == "alpha" ? s1 : s2);  // stream id is the row
    EXPECT_GT(k.dur, 0.0);
    ASSERT_EQ(k.args.size(), 2u);
    EXPECT_EQ(k.args[0].first, "kernel_id");
    EXPECT_EQ(k.args[1].first, "sm_needed");
  }

  const std::string json = Json(hub);
  EXPECT_NE(json.find("\"test-gpu\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\",\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\",\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1,\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(KernelTraceTest, EscapesKernelNames) {
  Hub hub;
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  hub.TraceKernels(device, "gpu0");
  device.LaunchKernel(device.CreateStream(),
                      testutil::MakeKernel("weird\"name\\with\nstuff", 10.0, 0.3, 0.1, 4));
  sim.RunUntilIdle();
  EXPECT_NE(Json(hub).find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
}

TEST(KernelTraceTest, TwoDevicesGetTwoTracks) {
  Hub hub;
  Simulator sim;
  gpusim::Device gpu0(&sim, gpusim::DeviceSpec::V100_16GB());
  gpusim::Device gpu1(&sim, gpusim::DeviceSpec::V100_16GB());
  const TrackId control = hub.spans().Track("control");
  const TrackId t0 = hub.TraceKernels(gpu0, "gpu0");
  const TrackId t1 = hub.TraceKernels(gpu1, "gpu1");
  gpu0.LaunchKernel(gpu0.CreateStream(), testutil::MakeKernel("on-zero", 100.0, 0.5, 0.2, 10));
  gpu1.LaunchKernel(gpu1.CreateStream(), testutil::MakeKernel("on-one", 50.0, 0.2, 0.5, 10));
  hub.spans().Instant(control, "marker", 5.0);
  sim.RunUntilIdle();
  // Kernel tracks take pids in registration order, like every other track.
  EXPECT_EQ(control, 0);
  EXPECT_EQ(t0, 1);
  EXPECT_EQ(t1, 2);
  const std::vector<TraceEvent> kernels = KernelSlices(hub);
  ASSERT_EQ(kernels.size(), 2u);
  for (const TraceEvent& k : kernels) {
    EXPECT_EQ(k.track, k.name == "on-zero" ? t0 : t1);
  }
  const std::string json = Json(hub);
  EXPECT_NE(json.find("\"pid\":1,\"args\":{\"name\":\"gpu0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"args\":{\"name\":\"gpu1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"marker\""), std::string::npos);
}

TEST(KernelTraceTest, EmptyTraceIsStillValid) {
  EXPECT_EQ(Json(Hub()), "[]\n");
}

// Past t = 1 s a kernel's ts has seven integer digits: the writer must keep
// all of them and three decimals, not six significant digits.
TEST(KernelTraceTest, LateKernelKeepsFixedPointTimestamp) {
  Hub hub;
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  hub.TraceKernels(device, "gpu0");
  const gpusim::StreamId stream = device.CreateStream();
  sim.ScheduleAt(1234567.891, [&]() {
    device.LaunchKernel(stream, testutil::MakeKernel("late", 12.5, 0.3, 0.1, 4));
  });
  sim.RunUntilIdle();
  const std::vector<TraceEvent> kernels = KernelSlices(hub);
  ASSERT_EQ(kernels.size(), 1u);
  ASSERT_GT(kernels[0].ts, 1e6);
  char ts[64];
  std::snprintf(ts, sizeof(ts), "%.3f", kernels[0].ts);
  EXPECT_NE(Json(hub).find("\"ts\":" + std::string(ts) + ","), std::string::npos)
      << Json(hub);
}

// Every RunExperiment call appends its own device track, so two runs into
// one hub (each starting at t = 0) never interleave on one lane.
TEST(KernelTraceTest, TwoRunsIntoOneHubUseDistinctTracks) {
  Hub hub;
  hub.EnableTracing();
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kStreams;
  config.warmup_us = 0.0;
  config.duration_us = MsToUs(50.0);
  harness::ClientConfig client;
  client.workload = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kInference);
  client.high_priority = true;
  client.arrivals = trace::ArrivalKind::kClosedLoop;
  config.clients = {client};
  config.telemetry = &hub;
  harness::RunExperiment(config);
  harness::RunExperiment(config);

  std::set<TrackId> kernel_tracks;
  for (const TraceEvent& k : KernelSlices(hub)) {
    kernel_tracks.insert(k.track);
  }
  ASSERT_EQ(kernel_tracks.size(), 2u);
  for (const TrackId track : kernel_tracks) {
    EXPECT_EQ(hub.spans().tracks()[static_cast<std::size_t>(track)], "gpu0");
  }
}

// Golden-file pin of the Chrome-trace JSON shape: one event of every kind on
// a fixed timeline. A diff here means the export format changed — update
// tests/data/telemetry_golden_trace.json deliberately (the test prints the
// actual output) and re-check that Perfetto still loads a bench trace.
TEST(ExporterTest, TraceJsonMatchesGoldenFile) {
  SpanTracer tracer;
  const TrackId svc = tracer.Track("service:demo");
  const TrackId gpu = tracer.Track("gpu0");
  tracer.Complete(svc, 1, "request", 0.0, 120.5, {{"slo_met", "1"}}, "request");
  tracer.Complete(svc, 1, "execute", 20.25, 120.5, {}, "execute");
  tracer.FlowStart(svc, 1, 9, 20.25);
  tracer.FlowEnd(gpu, 0, 9, 21.0);
  tracer.Complete(gpu, 0, "batch:demo", 21.0, 119.0, {{"batch_size", "4"}}, "batch");
  tracer.AsyncBegin(gpu, 5, "allreduce", 30.0, {{"bytes", "1024"}});
  tracer.AsyncEnd(gpu, 5, "allreduce", 90.0);
  tracer.Instant(svc, "shed", 64.125, {{"service", "demo"}});
  std::ostringstream os;
  WriteChromeTrace(tracer, os);
  const std::string actual = os.str();

  const std::string path = std::string(ORION_TEST_DATA_DIR) + "/telemetry_golden_trace.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str()) << "actual trace:\n" << actual;
}

// Golden-file pin of the LLM serving trace vocabulary (DESIGN.md §13): a
// decode-step slice with batch/prefill/KV-block attributes, a kv-evict
// marker, and a request slice carrying the per-token attributes. A diff
// means the LLM span shape changed — update
// tests/data/telemetry_golden_llm_trace.json deliberately.
TEST(ExporterTest, LlmTraceJsonMatchesGoldenFile) {
  SpanTracer tracer;
  const TrackId svc = tracer.Track("service:llm-decode");
  const TrackId gpu = tracer.Track("gpu0");
  tracer.Complete(svc, 7, "request", 0.0, 240.0,
                  {{"slo_met", "1"},
                   {"failovers", "0"},
                   {"node", "0"},
                   {"replica", "0"},
                   {"route_reason", "least-outstanding"},
                   {"tokens", "9"},
                   {"kv_evictions", "1"}},
                  "request");
  tracer.Complete(gpu, 0, "step:llm-decode", 40.0, 80.0,
                  {{"batch_size", "3"},
                   {"prefills", "1"},
                   {"kv_blocks", "15"},
                   {"replica", "0"}},
                  "decode-step");
  tracer.Instant(svc, "kv-evict", 64.0,
                 {{"service", "llm-decode"}, {"replica", "0"}, {"request", "7"}});
  std::ostringstream os;
  WriteChromeTrace(tracer, os);
  const std::string actual = os.str();

  const std::string path =
      std::string(ORION_TEST_DATA_DIR) + "/telemetry_golden_llm_trace.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str()) << "actual trace:\n" << actual;
}

// --- End-to-end determinism: same seed, byte-identical artefacts. ---

serving::ServingConfig SmallServingConfig() {
  serving::ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.25);
  config.duration_us = SecToUs(2.0);
  serving::ModelServiceConfig svc;
  svc.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  svc.tier = serving::PriorityTier::kLatencyCritical;
  svc.slo_us = MsToUs(60.0);
  svc.rps = 120.0;
  svc.initial_replicas = 2;
  config.models = {svc};
  return config;
}

TEST(TelemetryDeterminismTest, SameSeedServingRunsExportIdenticalArtefacts) {
  std::string traces[2], csvs[2];
  for (int run = 0; run < 2; ++run) {
    Hub hub;
    hub.EnableTracing();
    serving::ServingConfig config = SmallServingConfig();
    config.telemetry = &hub;
    (void)serving::RunServing(config);
    std::ostringstream trace_os, csv_os;
    WriteChromeTrace(hub.spans(), trace_os);
    WriteMetricsCsv(hub.metrics(), csv_os);
    traces[run] = trace_os.str();
    csvs[run] = csv_os.str();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);  // byte-identical trace
  EXPECT_EQ(csvs[0], csvs[1]);      // byte-identical metrics snapshot
}

TEST(TelemetryDeterminismTest, SameSeedLlmServingRunsExportIdenticalArtefacts) {
  std::string traces[2], csvs[2];
  for (int run = 0; run < 2; ++run) {
    Hub hub;
    hub.EnableTracing();
    serving::ServingConfig config = SmallServingConfig();
    serving::ModelServiceConfig& svc = config.models[0];
    svc.workload = workloads::MakeWorkload(workloads::ModelId::kLlmDecode,
                                           workloads::TaskType::kInference);
    svc.llm.enabled = true;
    svc.llm.model.layers = 4;
    svc.llm.model.hidden = 1024;
    svc.llm.model.heads = 8;
    svc.llm.prompt_tokens = 64;
    svc.llm.min_decode_tokens = 4;
    svc.llm.max_decode_tokens = 16;
    svc.rps = 40.0;
    config.telemetry = &hub;
    (void)serving::RunServing(config);
    std::ostringstream trace_os, csv_os;
    WriteChromeTrace(hub.spans(), trace_os);
    WriteMetricsCsv(hub.metrics(), csv_os);
    traces[run] = trace_os.str();
    csvs[run] = csv_os.str();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(csvs[0], csvs[1]);
  // The per-token instruments and the iteration-level span vocabulary are
  // present in the artefacts (bound only for llm.enabled services).
  EXPECT_NE(csvs[0].find("serving.ttft_us"), std::string::npos);
  EXPECT_NE(csvs[0].find("serving.tpot_us"), std::string::npos);
  EXPECT_NE(csvs[0].find("serving.tokens"), std::string::npos);
  EXPECT_NE(csvs[0].find("serving.decode_steps"), std::string::npos);
  EXPECT_NE(traces[0].find("decode-step"), std::string::npos);
  EXPECT_NE(traces[0].find("step:llm-decode"), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace orion
