// Figures 7a/7b: high-priority inference with Poisson arrivals (Table 3
// rates) collocated with each best-effort training job.
//
// Paper shape: REEF p99 ~2.5x ideal on average; Orion within ~14% of ideal
// with low variance across collocations, while raising aggregate throughput
// up to 2.3x over a dedicated GPU. This is artifact experiment E1/claim C1.
#include "bench/collocation_bench.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Figure 7", "inference-training collocation, Poisson arrivals");
  bench::MatrixOptions options;
  options.hp_arrivals = trace::ArrivalKind::kPoisson;
  options.rate_case = trace::CollocationCase::kInfTrainPoisson;
  options.partners_are_training = true;
  bench::RunCollocationMatrix("fig07", options);
  return 0;
}
