// LLM serving configuration and per-phase cost model (DESIGN.md §13).
//
// An LLM service replaces the fixed-cost request of the base serving engine
// with an autoregressive sequence: a prefill pass over the prompt produces
// the first token (TTFT), then one decode step per further token (TPOT).
// The costs come from the same roofline builder as everything else
// (workloads::BuildLlmPrefillKernels / BuildLlmDecodeStepKernels): prefill
// is compute-bound, decode memory-bound — the phase split Orion's scheduler
// keys on (§7) and Orca/vLLM exploit.
//
// SLOs are per-token: TTFT (arrival → first token) and TPOT (mean inter-
// token time after the first). Admission, routing, autoscaling and
// ServingResult all consume these instead of the per-request deadline.
#ifndef SRC_SERVING_LLM_COST_H_
#define SRC_SERVING_LLM_COST_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/device_spec.h"
#include "src/serving/request.h"
#include "src/workloads/models.h"

namespace orion {
namespace serving {

// KV-cache allocation granularity of every LLM replica, in tokens; decode
// contexts are costed in buckets of the same size.
inline constexpr int kKvBlockTokens = 16;

// Per-service LLM parameters; ModelServiceConfig::llm. With enabled unset
// the service keeps the classic fixed-cost request semantics.
struct LlmServiceConfig {
  bool enabled = false;
  // Iteration-level (Orca-style) batching: finished sequences leave and
  // queued sequences join between decode steps. With continuous unset the
  // service runs request-level batching — every sequence in a batch decodes
  // to the longest target before anything completes (the baseline
  // ext_llm_serving compares against).
  bool continuous = true;

  workloads::LlmModelConfig model;
  int prompt_tokens = 128;      // prompt length of every request
  int min_decode_tokens = 8;    // per-request decode target, sampled
  int max_decode_tokens = 64;   //   uniformly in [min, max]

  // KV-cache budget per replica. 0 = whatever device memory remains free on
  // the replica's GPU at placement time; a positive value caps it (the knob
  // the KV-pressure experiments turn down to force eviction).
  std::size_t kv_capacity_bytes = 0;

  // Per-token SLOs. A completion meets its SLO iff TTFT and TPOT both hold.
  DurationUs ttft_slo_us = MsToUs(200.0);
  DurationUs tpot_slo_us = MsToUs(20.0);
};

// Prefill/total decomposition of a request-level batch (the baseline path):
// every sequence's first token lands at prefill_us, everything completes at
// total_us.
struct LlmBatchBreakdown {
  DurationUs prefill_us = 0.0;
  DurationUs total_us = 0.0;
};

// Deterministic, cached per-phase service times. Contexts are bucketed up to
// the KV block size so the cache stays small while costs still grow with
// cache length (longer contexts stream more KV bytes per step).
class LlmCostModel {
 public:
  LlmCostModel(const gpusim::DeviceSpec& device, const LlmServiceConfig& service,
               DurationUs launch_overhead_us);

  // One sequence's prefill pass over `context_tokens` prompt (+ recomputed)
  // tokens, producing its first token.
  DurationUs PrefillUs(int context_tokens) const;

  // One decode step for `batch` sequences at mean context `context_tokens`.
  DurationUs DecodeStepUs(int batch, int context_tokens) const;

  // Step cost at a typical operating point (`batch` sequences halfway
  // through their generation): the router's and admission controller's unit
  // of outstanding work.
  DurationUs TypicalStepUs(int batch) const;

  // Service time of a request-level batch: all prefills up front, then every
  // sequence decodes until the LONGEST target finishes (stragglers pad the
  // batch — the head-of-line cost continuous batching removes).
  LlmBatchBreakdown RequestLevelBatchUs(const std::vector<Request>& batch) const;

  std::size_t kv_bytes_per_token() const { return kv_bytes_per_token_; }
  const LlmServiceConfig& service() const { return service_; }

 private:
  int ContextBucket(int context_tokens) const;

  gpusim::DeviceSpec device_;
  LlmServiceConfig service_;
  DurationUs launch_overhead_us_;
  std::size_t kv_bytes_per_token_;
  mutable std::map<int, DurationUs> prefill_cache_;            // by context bucket
  mutable std::map<std::uint64_t, DurationUs> step_cache_;     // by (batch, bucket)
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_LLM_COST_H_
