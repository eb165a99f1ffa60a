// Figures 6a/6b: high-priority inference driven by the (synthetic) Apollo
// autonomous-driving trace, collocated with each best-effort training job.
// Reports p99 latency per technique (mean and spread across the five
// collocated training jobs) and the throughput split.
//
// Paper shape: temporal sharing has very high tail latency (HOL blocking);
// Streams/MPS are better but unprioritised; REEF averages 3.44x ideal p99;
// Orion stays within ~14% of ideal while adding best-effort throughput.
#include "bench/collocation_bench.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Figure 6", "inference-training collocation, Apollo trace arrivals");
  bench::MatrixOptions options;
  options.hp_arrivals = trace::ArrivalKind::kApollo;
  options.rate_case = trace::CollocationCase::kInfTrainPoisson;  // same mean rates
  options.partners_are_training = true;
  bench::RunCollocationMatrix("fig06", options);
  return 0;
}
