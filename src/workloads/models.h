// Model zoo: the five DNN workloads of the paper's evaluation (§6.1).
//
//   * ResNet50, ResNet101, MobileNetV2 — vision (TorchVision configs)
//   * BERT (large for inference, base for training — Table 1) and
//     Transformer — NLP (NVIDIA reference configs)
//
// Each workload expands into the kernel sequence of one inference request or
// one training iteration, via the layer builder and the analytic cost model.
// Kernel ids are stable across requests of the same workload, which is what
// the profiler's lookup table keys on (§5.2).
#ifndef SRC_WORKLOADS_MODELS_H_
#define SRC_WORKLOADS_MODELS_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/gpusim/kernel.h"
#include "src/runtime/op.h"
#include "src/workloads/layers.h"

namespace orion {
namespace workloads {

enum class ModelId : std::uint8_t {
  kResNet50,
  kMobileNetV2,
  kResNet101,
  kBert,         // BERT-large for inference, BERT-base for training (Table 1)
  kTransformer,
  // Extension (paper §7): autoregressive LLM token generation. Each request
  // decodes a fixed number of tokens sequentially; every step is dominated
  // by weight and KV-cache streaming, i.e. memory-bound kernels that
  // underutilize compute throughput — the collocation opportunity the paper
  // describes for LLM inference. Not part of the paper's evaluated set
  // (hence excluded from kAllModels).
  kLlmDecode,
};

// The five models of the paper's evaluation (§6.1).
constexpr ModelId kAllModels[] = {ModelId::kResNet50, ModelId::kMobileNetV2,
                                  ModelId::kResNet101, ModelId::kBert, ModelId::kTransformer};

const char* ModelName(ModelId model);
bool IsVisionModel(ModelId model);

struct WorkloadSpec {
  ModelId model = ModelId::kResNet50;
  TaskType task = TaskType::kInference;
  int batch_size = 1;

  auto operator<=>(const WorkloadSpec&) const = default;
};

// Paper defaults (Table 1): inference bs 4/4/4/2/4, training bs 32/64/32/8/8.
WorkloadSpec MakeWorkload(ModelId model, TaskType task);
WorkloadSpec MakeWorkload(ModelId model, TaskType task, int batch_size);

std::string WorkloadName(const WorkloadSpec& spec);

// Kernel sequence of one request (inference) or one iteration (training).
std::vector<gpusim::KernelDesc> BuildKernels(const gpusim::DeviceSpec& device,
                                             const WorkloadSpec& spec);

// Full request op list: input H2D copy, kernels, output D2H copy (inference
// only; a training iteration keeps its state on-device).
std::vector<runtime::Op> BuildRequestOps(const gpusim::DeviceSpec& device,
                                         const WorkloadSpec& spec);

// Rough GPU-resident state: parameters (plus gradients + momentum when
// training) and peak activations. Used for Table 1's memory-capacity column
// and the harness's fits-in-memory admission check.
std::size_t ApproxModelStateBytes(const WorkloadSpec& spec);

// §7 extension: captures each run of consecutive kernel launches into graph
// ops of at most 32 kernels (frameworks capture per layer block); other ops
// pass through. Renumbers index_in_request and marks the last op. The graph
// ops view their kernels in `*kernels`, which the call replaces and which
// must outlive them (moving the vector keeps them valid).
std::vector<runtime::Op> CaptureCudaGraphs(const std::vector<runtime::Op>& ops,
                                           std::vector<gpusim::KernelDesc>* kernels);

// Everything a run needs of one workload on one device that does not change
// between requests or runs. Not copyable: graph ops view graph_kernels.
struct RequestTemplate {
  RequestTemplate() = default;
  RequestTemplate(const RequestTemplate&) = delete;
  RequestTemplate& operator=(const RequestTemplate&) = delete;
  RequestTemplate(RequestTemplate&&) = default;
  RequestTemplate& operator=(RequestTemplate&&) = default;

  // BuildRequestOps(device, spec), captured by CaptureCudaGraphs when asked.
  std::vector<runtime::Op> ops;
  // The kernels the captured graph ops view; empty without capture.
  std::vector<gpusim::KernelDesc> graph_kernels;
  std::size_t state_bytes = 0;  // ApproxModelStateBytes(spec)
};

// The request template of (device, spec, cuda_graphs), built on first use
// and kept for the life of the process: a mutex-guarded memo like
// profiler::SharedProfile's, so concurrent runs may share it. Every caller
// gets the same immutable entry; the reference stays valid until exit.
const RequestTemplate& SharedRequestTemplate(const gpusim::DeviceSpec& device,
                                             const WorkloadSpec& spec,
                                             bool cuda_graphs = false);

// Learnable-parameter bytes alone (fp32, embedding tables included): the
// gradient volume a data-parallel trainer all-reduces every iteration.
std::size_t ApproxParameterBytes(const WorkloadSpec& spec);

// --- Autoregressive LLM serving (paper §7, ROADMAP "LLM serving"). ---------
//
// Continuous-batching serving needs the two phases of autoregressive
// inference as separate kernel sequences: a PREFILL pass over the whole
// prompt (large GEMMs, compute-bound) that runs once per sequence, and a
// per-token DECODE step (skinny GEMMs + KV-cache attention, memory-bound)
// that runs once per generated token over however many sequences share the
// iteration. BuildKernels(kLlmDecode) keeps emitting the legacy fixed
// 8-token request for the collocation benches; the serving engine composes
// these two builders instead.
struct LlmModelConfig {
  int layers = 12;
  int hidden = 2048;
  int heads = 16;
};

// Kernel sequence of one prefill pass over `prompt_tokens` tokens of a
// single sequence (sequences prefill independently; a step's prefill cost is
// the sum over its joiners). Compute-bound at realistic prompt lengths.
std::vector<gpusim::KernelDesc> BuildLlmPrefillKernels(const gpusim::DeviceSpec& device,
                                                       const LlmModelConfig& cfg,
                                                       int prompt_tokens);

// Kernel sequence of ONE decode step for `batch` sequences, each attending
// to a KV cache of `context_tokens`. Memory-bound: every matmul streams the
// full weight matrix for a handful of rows.
std::vector<gpusim::KernelDesc> BuildLlmDecodeStepKernels(const gpusim::DeviceSpec& device,
                                                          const LlmModelConfig& cfg, int batch,
                                                          int context_tokens);

// KV-cache bytes one token of one sequence pins: K and V vectors per layer,
// fp32. The unit the serving tier's block allocator (serving/kv_cache.h)
// accounts device memory in.
std::size_t LlmKvBytesPerToken(const LlmModelConfig& cfg);

// Resident weight bytes of the decoder (fp32 layers + embedding table).
std::size_t LlmWeightBytes(const LlmModelConfig& cfg);

}  // namespace workloads
}  // namespace orion

#endif  // SRC_WORKLOADS_MODELS_H_
