// Chrome-trace export tests.
#include <gtest/gtest.h>

#include <sstream>

#include "src/gpusim/trace_export.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace gpusim {
namespace {

using testutil::MakeKernel;

TEST(TraceExportTest, CollectsRecordsAndWritesValidEvents) {
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  TraceCollector collector;
  collector.RecordInto(device, "test-gpu");
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  device.LaunchKernel(s1, MakeKernel("alpha", 100.0, 0.5, 0.2, 10));
  device.LaunchKernel(s2, MakeKernel("beta", 50.0, 0.2, 0.5, 10));
  sim.RunUntilIdle();
  ASSERT_EQ(collector.size(), 2u);

  std::ostringstream os;
  collector.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);  // stream id as track
  EXPECT_NE(json.find("test-gpu"), std::string::npos);
  // Balanced brackets / parseable shape: equal counts of { and }.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceExportTest, EscapesSpecialCharacters) {
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  TraceCollector collector;
  collector.RecordInto(device);
  const StreamId stream = device.CreateStream();
  device.LaunchKernel(stream, MakeKernel("weird\"name\\with\nstuff", 10.0, 0.3, 0.1, 4));
  sim.RunUntilIdle();
  std::ostringstream os;
  collector.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"), std::string::npos);
}

TEST(TraceExportTest, MergesMultipleDevicesAsSeparateTracks) {
  Simulator sim;
  Device gpu0(&sim, DeviceSpec::V100_16GB());
  Device gpu1(&sim, DeviceSpec::V100_16GB());
  TraceCollector collector;
  collector.RecordInto(gpu0, "gpu0");
  collector.RecordInto(gpu1, "gpu1");
  gpu0.LaunchKernel(gpu0.CreateStream(), MakeKernel("on-zero", 100.0, 0.5, 0.2, 10));
  gpu1.LaunchKernel(gpu1.CreateStream(), MakeKernel("on-one", 50.0, 0.2, 0.5, 10));
  sim.RunUntilIdle();
  ASSERT_EQ(collector.size(), 2u);

  std::ostringstream os;
  collector.WriteChromeTrace(os);
  const std::string json = os.str();
  // One process-name metadata record and one pid per device.
  EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"on-zero\""), std::string::npos);
  EXPECT_NE(json.find("\"on-one\""), std::string::npos);
}

TEST(TraceExportTest, EmptyTraceIsStillValid) {
  TraceCollector collector;
  std::ostringstream os;
  collector.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("]"), std::string::npos);
}

}  // namespace
}  // namespace gpusim
}  // namespace orion
