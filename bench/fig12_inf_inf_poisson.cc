// Figure 12: inference-inference collocation with Poisson arrivals for both
// jobs (Table 3 Poisson rates).
//
// Paper shape: Orion keeps hp p99 within ~15% of ideal while lifting
// aggregate inference throughput up to 7.3x over a dedicated GPU.
#include "bench/collocation_bench.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Figure 12", "inference-inference collocation, Poisson arrivals");
  bench::MatrixOptions options;
  options.hp_arrivals = trace::ArrivalKind::kPoisson;
  options.rate_case = trace::CollocationCase::kInfInfPoisson;
  options.partners_are_training = false;
  options.be_arrivals = trace::ArrivalKind::kPoisson;
  options.be_rate_case = trace::CollocationCase::kInfInfPoisson;
  bench::RunCollocationMatrix("fig12", options);
  return 0;
}
