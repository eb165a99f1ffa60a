// Bench command-line parsing (bench/bench_util.h): numeric flags must parse
// completely and be finite, anything else exits with status 2 and a message
// instead of silently running with a wrapped, truncated or NaN value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace orion {
namespace bench {
namespace {

// Runs ParseBenchArgs over "bench <flags...>" for a bench that honours the
// `honoured` telemetry flags and returns the leftover argc.
int Parse(std::vector<std::string> flags, unsigned honoured = kAllExports) {
  std::vector<char*> argv;
  static char program[] = "bench";
  argv.push_back(program);
  for (std::string& flag : flags) {
    argv.push_back(flag.data());
  }
  int argc = static_cast<int>(argv.size());
  ParseBenchArgs(&argc, argv.data(), honoured);
  return argc;
}

void ExpectRejected(const std::string& flag, const std::string& message) {
  EXPECT_EXIT(Parse({flag}), testing::ExitedWithCode(2), message) << flag;
}

TEST(BenchArgsTest, WellFormedValuesParse) {
  GlobalBenchArgs() = BenchArgs();
  EXPECT_EQ(Parse({"--quick", "--seed=7", "--window-scale=0.5", "--flush-period-ms=2.5",
                   "--benchmark_filter=x"}),
            2);  // the google-benchmark flag is kept for the caller
  const BenchArgs& args = GlobalBenchArgs();
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_DOUBLE_EQ(args.window_scale, 0.5);
  EXPECT_DOUBLE_EQ(args.flush_period_ms, 2.5);
  GlobalBenchArgs() = BenchArgs();
}

TEST(BenchArgsTest, SeedMustBeACompleteUnsignedNumber) {
  ExpectRejected("--seed=abc", "invalid value for --seed: 'abc'");
  ExpectRejected("--seed=-1", "invalid value for --seed: '-1'");
  ExpectRejected("--seed=+1", "invalid value for --seed");
  ExpectRejected("--seed=12x", "invalid value for --seed: '12x'");
  ExpectRejected("--seed=", "invalid value for --seed");
  ExpectRejected("--seed=99999999999999999999999", "invalid value for --seed");
}

TEST(BenchArgsTest, WindowScaleMustBeAFinitePositiveNumber) {
  ExpectRejected("--window-scale=2x", "invalid value for --window-scale: '2x'");
  ExpectRejected("--window-scale=", "invalid value for --window-scale");
  ExpectRejected("--window-scale=nan", "invalid value for --window-scale: 'nan'");
  ExpectRejected("--window-scale=inf", "invalid value for --window-scale: 'inf'");
  ExpectRejected("--window-scale=1e999", "invalid value for --window-scale");
  ExpectRejected("--window-scale= 0.5", "invalid value for --window-scale: ' 0.5'");
  ExpectRejected("--window-scale=0.5 ", "invalid value for --window-scale: '0.5 '");
  ExpectRejected("--window-scale=0", "--window-scale must be > 0");
  ExpectRejected("--window-scale=-1", "--window-scale must be > 0");
}

TEST(BenchArgsTest, FlushPeriodMustBeAFiniteNonNegativeNumber) {
  ExpectRejected("--flush-period-ms=nan", "invalid value for --flush-period-ms: 'nan'");
  ExpectRejected("--flush-period-ms=-nan", "invalid value for --flush-period-ms");
  ExpectRejected("--flush-period-ms=inf", "invalid value for --flush-period-ms");
  ExpectRejected("--flush-period-ms=10ms", "invalid value for --flush-period-ms: '10ms'");
  ExpectRejected("--flush-period-ms=-1", "--flush-period-ms must be >= 0");
}

// A bench rejects, by name, each telemetry flag it would otherwise ignore,
// in both spellings, and accepts the ones it honours.
TEST(BenchArgsTest, UnhonouredExportFlagsAreRejected) {
  for (const char* flag : {"--trace-out=t.json", "--metrics-out=m.csv", "--attr-out=a.csv",
                           "--flush-period-ms=5"}) {
    const std::string name = std::string(flag).substr(0, std::string(flag).find('='));
    EXPECT_EXIT(Parse({flag}, kNoExports), testing::ExitedWithCode(2),
                "bench does not support " + name)
        << flag;
  }
  EXPECT_EXIT(Parse({"--trace-out", "t.json"}, kMetricsOut), testing::ExitedWithCode(2),
              "does not support --trace-out");
  EXPECT_EXIT(Parse({"--attr-out=a.csv"}, kTraceOut | kMetricsOut),
              testing::ExitedWithCode(2), "does not support --attr-out");
  GlobalBenchArgs() = BenchArgs();
  EXPECT_EQ(Parse({"--trace-out=t.json", "--metrics-out", "m.csv"}, kTraceOut | kMetricsOut), 1);
  EXPECT_EQ(GlobalBenchArgs().trace_out, "t.json");
  EXPECT_EQ(GlobalBenchArgs().metrics_out, "m.csv");
  GlobalBenchArgs() = BenchArgs();
}

TEST(BenchArgsTest, LpThreadsIsAnUnknownArgument) {
  ExpectRejected("--lp-threads=4", "unknown argument: --lp-threads=4");
}

}  // namespace
}  // namespace bench
}  // namespace orion
