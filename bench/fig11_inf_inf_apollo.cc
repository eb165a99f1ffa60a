// Figure 11: inference-inference collocation, Apollo-trace arrivals for the
// high-priority vision model, uniform arrivals (Table 3 rates) for the
// best-effort inference job.
//
// Paper shape: Streams/MPS p99 ~1.89x ideal with high variance; REEF 1.86x;
// Orion within ~22% of ideal. This is artifact experiment E2.
#include "bench/collocation_bench.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 11", "inference-inference collocation, Apollo trace");
  bench::MatrixOptions options;
  options.hp_arrivals = trace::ArrivalKind::kApollo;
  options.rate_case = trace::CollocationCase::kInfInfUniform;
  options.partners_are_training = false;
  options.be_arrivals = trace::ArrivalKind::kUniform;
  options.be_rate_case = trace::CollocationCase::kInfInfUniform;
  bench::RunCollocationMatrix("fig11", options);
  return 0;
}
