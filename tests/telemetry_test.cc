// Telemetry subsystem tests: metric registry semantics, span tracer
// recording, exporter output shape (CSV + Chrome trace JSON), golden-file
// stability of the trace format, and byte-identical determinism of a traced
// end-to-end serving run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

TEST(ExporterTest, MergedTraceGroupsKernelTracksAboveKernelPidBase) {
  Hub hub;
  hub.EnableTracing();
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  hub.kernels().RecordInto(device, "gpu0");
  device.LaunchKernel(device.CreateStream(),
                      testutil::MakeKernel("conv", 100.0, 0.5, 0.2, 10));
  const TrackId t = hub.spans().Track("control");
  hub.spans().Instant(t, "marker", 5.0);
  sim.RunUntilIdle();

  std::ostringstream os;
  WriteChromeTrace(hub, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);     // span track
  EXPECT_NE(json.find("\"pid\":1000"), std::string::npos);  // kernel track
  EXPECT_NE(json.find("\"conv\""), std::string::npos);
  EXPECT_NE(json.find("\"marker\""), std::string::npos);
  EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"control\""), std::string::npos);
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
    WriteChromeTrace(hub, trace_os);
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
    WriteChromeTrace(hub, trace_os);
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
