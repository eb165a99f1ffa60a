// Extension bench: LLM serving with continuous batching and KV-cache
// pressure (DESIGN.md §13). Three arms plus an instrumented telemetry run:
//
//   1. Continuous vs request-level batching at matched load — the Orca
//      claim: iteration-level scheduling removes the head-of-line cost of
//      decoding a batch to its longest generation, so TPOT p99 drops
//      strictly at every load level while TTFT and goodput hold or improve.
//   2. KV-cache oversubscription — shrink the per-replica KV budget below
//      the working set: the engine preempts-with-recompute (vLLM-style),
//      trading recompute prefills for admission of new sequences. Goodput
//      degrades gracefully instead of deadlocking.
//   3. Determinism — the same seeded run twice must produce identical
//      token/eviction/latency numbers (the per-token invariant suite pins
//      the same property at test scale).
//
// Deterministic: same seed, same tables. `--quick` shrinks the windows for
// the CI smoke run; `--trace-out` attaches a telemetry hub and writes the
// decode-step span timeline. The last line encodes the EXPERIMENTS.md
// verdicts as ACCEPTANCE predicates; CI greps those that hold.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <limits>

#include "bench/bench_util.h"
#include "src/serving/serving.h"

using namespace orion;

namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

serving::ModelServiceConfig LlmService(double rps, bool continuous) {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kLatencyCritical;
  cfg.rps = rps;
  cfg.llm.enabled = true;
  cfg.llm.continuous = continuous;
  cfg.llm.model.layers = 4;
  cfg.llm.model.hidden = 1024;
  cfg.llm.model.heads = 8;
  cfg.llm.prompt_tokens = 128;
  cfg.llm.min_decode_tokens = 8;
  cfg.llm.max_decode_tokens = 64;
  cfg.llm.ttft_slo_us = MsToUs(100.0);
  cfg.llm.tpot_slo_us = MsToUs(5.0);
  cfg.initial_replicas = 2;
  cfg.max_replicas = 2;
  return cfg;
}

serving::ServingConfig BaseConfig(double rps, bool continuous) {
  serving::ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = bench::WarmupWindowUs();
  config.duration_us = bench::MeasureWindowUs();
  config.seed = bench::GlobalBenchArgs().seed;
  // A realistic dynamic-batcher linger so the request-level baseline forms
  // multi-sequence batches (its best practice — and the thing that holds
  // short generations hostage). Continuous batching ignores the linger:
  // iteration-level steps self-chain.
  config.batching.max_queue_delay_us = MsToUs(25.0);
  config.models = {LlmService(rps, continuous)};
  return config;
}

const serving::ModelServingResult& Llm(const serving::ServingResult& result) {
  return result.models[0];
}

// Goodput: SLO-meeting completions per second over the window.
double GoodputRps(const serving::ServingResult& result) {
  return static_cast<double>(Llm(result).slo_met) / UsToSec(result.window_us);
}

// Returns the predicate that continuous TPOT p99 is strictly below
// request-level at every load.
bench::Predicate BatchingModeArm() {
  std::cout << "-- Arm 1: continuous vs request-level batching --\n"
            << "One LLM service (128-token prompts, 8..64 decode tokens, 2\n"
            << "replicas / 2 GPUs). Request-level decodes every batch to its\n"
            << "longest generation; continuous joins/leaves between steps.\n\n";
  Table table({"offered rps", "mode", "goodput rps", "ttft p99 ms", "tpot p99 ms",
               "mean batch", "attainment"});
  const std::vector<double> loads = {40.0, 80.0, 120.0};
  bool continuous_dominates = true;
  std::size_t tpot_sample = std::numeric_limits<std::size_t>::max();
  for (const double rps : loads) {
    double request_level_tpot = 0.0;
    for (const bool continuous : {false, true}) {
      serving::ServingConfig config = BaseConfig(rps, continuous);
      // Admission off for this arm: shedding against the TTFT SLO keeps the
      // request-level queue near-empty (a multi-hundred-ms batch blows the
      // predicted wait), so the baseline would never form the multi-sequence
      // batches whose head-of-line cost this arm measures.
      config.admission.enabled = false;
      const serving::ServingResult result = serving::RunServing(config);
      const serving::ModelServingResult& m = Llm(result);
      tpot_sample = std::min(tpot_sample, m.tpot.count());
      if (continuous) {
        continuous_dominates =
            continuous_dominates && m.tpot.p99() < request_level_tpot;
      } else {
        request_level_tpot = m.tpot.p99();
      }
      table.AddRow({Cell(rps, 0), continuous ? "continuous" : "request-level",
                    Cell(GoodputRps(result), 1), Cell(UsToMs(m.ttft.p99()), 2),
                    Cell(UsToMs(m.tpot.p99()), 2), Cell(m.mean_batch_size),
                    Cell(m.slo_attainment)});
    }
  }
  table.Print(std::cout);
  std::cout << "\ncontinuous TPOT p99 strictly below request-level at every load: "
            << (continuous_dominates ? "yes" : "NO — regression") << "\n";
  return {"continuous-tpot-p99-below-request-level@every-load", continuous_dominates,
          tpot_sample};
}

struct KvVerdicts {
  bool plentiful_evicts_none = false;  // the 16-footprint budget
  bool tight_evict = true;             // the 4.0 and 1.8 footprint budgets
};

KvVerdicts KvPressureArm() {
  std::cout << "\n-- Arm 2: KV-cache oversubscription --\n"
            << "Single replica at 40 rps (within its compute capacity); the\n"
            << "KV budget shrinks from plentiful to under two full-length\n"
            << "sequences. Evictions preempt the newest sequence, which\n"
            << "recomputes its context on rejoin.\n\n";
  Table table({"kv budget (seqs)", "evictions", "prefills", "completed",
               "goodput rps", "tpot p99 ms"});
  // Max footprint of one sequence: full prompt plus the longest generation.
  const std::size_t per_seq_bytes =
      workloads::LlmKvBytesPerToken(LlmService(1.0, true).llm.model) * (128u + 64u);
  // 1.8 footprints sits in the eviction band: two sequences join (at
  // prompt+1 tokens each) but cannot both decode to their full length, so
  // mid-flight extends overflow and preempt. Below ~1.5 joins themselves are
  // refused and the cache never overflows — pressure shows up as queueing.
  KvVerdicts verdicts;
  for (const double budget_seqs : {16.0, 4.0, 1.8}) {
    serving::ServingConfig config = BaseConfig(40.0, /*continuous=*/true);
    config.num_gpus = 1;
    config.models[0].initial_replicas = 1;
    config.models[0].max_replicas = 1;
    config.models[0].llm.kv_capacity_bytes =
        static_cast<std::size_t>(budget_seqs * static_cast<double>(per_seq_bytes));
    const serving::ServingResult result = serving::RunServing(config);
    const serving::ModelServingResult& m = Llm(result);
    if (budget_seqs == 16.0) {
      verdicts.plentiful_evicts_none = m.kv_evictions == 0;
    } else {
      verdicts.tight_evict = verdicts.tight_evict && m.kv_evictions > 0;
    }
    table.AddRow({Cell(budget_seqs, 1), Cell(m.kv_evictions), Cell(m.prefills),
                  Cell(m.completed), Cell(GoodputRps(result), 1),
                  Cell(UsToMs(m.tpot.p99()), 2)});
  }
  table.Print(std::cout);
  return verdicts;
}

// Returns whether the same-seed rerun is bit-identical.
bool DeterminismArm() {
  std::cout << "\n-- Arm 3: determinism --\n";
  const serving::ServingResult a = serving::RunServing(BaseConfig(120.0, true));
  const serving::ServingResult b = serving::RunServing(BaseConfig(120.0, true));
  const bool identical = Llm(a).tokens == Llm(b).tokens &&
                         Llm(a).decode_steps == Llm(b).decode_steps &&
                         Llm(a).kv_evictions == Llm(b).kv_evictions &&
                         Llm(a).completed == Llm(b).completed &&
                         Llm(a).ttft.p99() == Llm(b).ttft.p99() &&
                         Llm(a).tpot.p99() == Llm(b).tpot.p99();
  std::cout << "same-seed rerun (tokens / steps / evictions / ttft / tpot): "
            << (identical ? "bit-identical" : "DIVERGED") << "\n";
  return identical;
}

// Instrumented arm, run only when --trace-out / --metrics-out was given:
// one continuous-batching run with the hub attached; the trace carries the
// step:<service> decode-step slices and kv-evict markers.
void TelemetryArm() {
  std::cout << "\n-- Telemetry arm: instrumented run (120 rps, continuous) --\n";
  telemetry::Hub hub;
  bench::EnableRequestedTelemetry(hub);
  serving::ServingConfig config = BaseConfig(120.0, /*continuous=*/true);
  config.telemetry = &hub;
  const serving::ServingResult result = serving::RunServing(config);
  const serving::ModelServingResult& m = Llm(result);
  Table table({"tokens", "prefills", "decode steps", "evictions", "ttft p99 ms",
               "tpot p99 ms"});
  table.AddRow({Cell(m.tokens), Cell(m.prefills), Cell(m.decode_steps),
                Cell(m.kv_evictions), Cell(UsToMs(m.ttft.p99()), 2),
                Cell(UsToMs(m.tpot.p99()), 2)});
  table.Print(std::cout);
  bench::ExportTelemetry(hub);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv, bench::kTraceOut | bench::kMetricsOut | bench::kAttrOut);
  bench::PrintHeader("Extension (LLM serving)",
                     "continuous batching, KV-cache pressure, per-token SLOs");
  const bench::Predicate continuous_tpot_below = BatchingModeArm();
  const KvVerdicts kv = KvPressureArm();
  const bool rerun_identical = DeterminismArm();
  if (bench::TelemetryRequested()) {
    TelemetryArm();
  }
  bench::PrintAcceptance("llm-serving", {continuous_tpot_below,
                                         {"kv-evictions-0@16x", kv.plentiful_evicts_none},
                                         {"kv-evicts@4x,1.8x", kv.tight_evict},
                                         {"rerun-bit-identical", rerun_identical}});
  return 0;
}
