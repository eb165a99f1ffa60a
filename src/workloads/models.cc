#include "src/workloads/models.h"

#include <map>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/workloads/cost_model.h"

namespace orion {
namespace workloads {
namespace {

// --- ResNet (He et al. [51]); bottleneck counts per stage. --------------------

struct ResNetConfig {
  int blocks_per_stage[4];
};

void BuildResNet(GraphBuilder& g, const ResNetConfig& cfg, int batch) {
  // Stem: conv7x7 s2 -> 112x112x64, bn, relu, maxpool -> 56x56.
  g.Conv2d("stem.conv", batch, 3, 64, 112, 112, 7);
  g.BatchNorm2d("stem.bn", batch, 64, 112, 112);
  g.Relu("stem.relu", batch, 64, 112, 112);
  g.Pool("stem.maxpool", batch, 64, 56, 56, 3);

  const int widths[4] = {64, 128, 256, 512};
  const int spatial[4] = {56, 28, 14, 7};
  int in_c = 64;
  for (int stage = 0; stage < 4; ++stage) {
    const int mid = widths[stage];
    const int out_c = mid * 4;
    const int hw = spatial[stage];
    for (int block = 0; block < cfg.blocks_per_stage[stage]; ++block) {
      const std::string p =
          "layer" + std::to_string(stage + 1) + "." + std::to_string(block) + ".";
      g.Conv2d(p + "conv1", batch, in_c, mid, hw, hw, 1);
      g.BatchNorm2d(p + "bn1", batch, mid, hw, hw);
      g.Relu(p + "relu1", batch, mid, hw, hw);
      g.Conv2d(p + "conv2", batch, mid, mid, hw, hw, 3);
      g.BatchNorm2d(p + "bn2", batch, mid, hw, hw);
      g.Relu(p + "relu2", batch, mid, hw, hw);
      g.Conv2d(p + "conv3", batch, mid, out_c, hw, hw, 1);
      g.BatchNorm2d(p + "bn3", batch, out_c, hw, hw);
      if (block == 0) {
        g.Conv2d(p + "downsample", batch, in_c, out_c, hw, hw, 1);
        g.BatchNorm2d(p + "downsample.bn", batch, out_c, hw, hw);
      }
      g.Add(p + "add", batch, out_c, hw, hw);
      g.Relu(p + "relu3", batch, out_c, hw, hw);
      in_c = out_c;
    }
  }
  g.Pool("avgpool", batch, 2048, 1, 1, 7);
  g.Linear("fc", batch, 2048, 1000);
  g.Loss("loss", batch, 1000);
}

// --- MobileNetV2 (Sandler et al. [84]); inverted residual config table. -------

void BuildMobileNetV2(GraphBuilder& g, int batch) {
  g.Conv2d("stem.conv", batch, 3, 32, 112, 112, 3);
  g.BatchNorm2d("stem.bn", batch, 32, 112, 112);
  g.Relu("stem.relu6", batch, 32, 112, 112);

  struct Block {
    int expand, out_c, repeat, stride;
  };
  // (t, c, n, s) from the MobileNetV2 paper.
  const Block blocks[] = {
      {1, 16, 1, 1}, {6, 24, 2, 2},  {6, 32, 3, 2},  {6, 64, 4, 2},
      {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
  };
  int in_c = 32;
  int hw = 112;
  int index = 0;
  for (const Block& block : blocks) {
    for (int r = 0; r < block.repeat; ++r) {
      const int stride = r == 0 ? block.stride : 1;
      if (stride == 2) {
        hw /= 2;
      }
      const std::string p = "ir" + std::to_string(index++) + ".";
      const int expanded = in_c * block.expand;
      if (block.expand != 1) {
        g.Conv2d(p + "expand", batch, in_c, expanded, hw, hw, 1);
        g.BatchNorm2d(p + "expand.bn", batch, expanded, hw, hw);
        g.Relu(p + "expand.relu6", batch, expanded, hw, hw);
      }
      // Depthwise 3x3 (groups == channels): memory-bound.
      g.Conv2d(p + "dw", batch, expanded, expanded, hw, hw, 3, expanded);
      g.BatchNorm2d(p + "dw.bn", batch, expanded, hw, hw);
      g.Relu(p + "dw.relu6", batch, expanded, hw, hw);
      g.Conv2d(p + "project", batch, expanded, block.out_c, hw, hw, 1);
      g.BatchNorm2d(p + "project.bn", batch, block.out_c, hw, hw);
      if (stride == 1 && in_c == block.out_c) {
        g.Add(p + "add", batch, block.out_c, hw, hw);
      }
      in_c = block.out_c;
    }
  }
  g.Conv2d("head.conv", batch, 320, 1280, 7, 7, 1);
  g.BatchNorm2d("head.bn", batch, 1280, 7, 7);
  g.Relu("head.relu6", batch, 1280, 7, 7);
  g.Pool("avgpool", batch, 1280, 1, 1, 7);
  g.Linear("classifier", batch, 1280, 1000);
  g.Loss("loss", batch, 1000);
}

// --- Transformer encoder stack shared by BERT and Transformer. ----------------

struct TransformerConfig {
  int layers;
  int hidden;
  int heads;
  int seq;
  int ffn;
  int vocab;
};

void BuildTransformerStack(GraphBuilder& g, const TransformerConfig& cfg, int batch) {
  const double tokens = static_cast<double>(batch) * cfg.seq;
  const double head_dim = static_cast<double>(cfg.hidden) / cfg.heads;
  g.Embedding("embed", tokens, cfg.hidden);
  g.LayerNorm("embed.ln", tokens, cfg.hidden);
  g.Dropout("embed.dropout", tokens * cfg.hidden);
  for (int layer = 0; layer < cfg.layers; ++layer) {
    const std::string p = "layer" + std::to_string(layer) + ".";
    // Attention: fused QKV projection, scores, softmax, context, output proj.
    g.Linear(p + "attn.qkv", tokens, cfg.hidden, 3.0 * cfg.hidden);
    g.Gemm(p + "attn.scores", static_cast<double>(batch) * cfg.heads * cfg.seq, cfg.seq,
           head_dim);
    g.Softmax(p + "attn.softmax", static_cast<double>(batch) * cfg.heads * cfg.seq, cfg.seq);
    g.Dropout(p + "attn.dropout", static_cast<double>(batch) * cfg.heads * cfg.seq * cfg.seq);
    g.Gemm(p + "attn.context", static_cast<double>(batch) * cfg.heads * cfg.seq, head_dim,
           cfg.seq);
    g.Linear(p + "attn.out", tokens, cfg.hidden, cfg.hidden);
    g.Add(p + "attn.residual", 1, 1, 1, static_cast<int>(tokens * cfg.hidden));
    g.LayerNorm(p + "attn.ln", tokens, cfg.hidden);
    // Feed-forward network.
    g.Linear(p + "ffn.fc1", tokens, cfg.hidden, cfg.ffn);
    g.Gelu(p + "ffn.gelu", tokens * cfg.ffn);
    g.Linear(p + "ffn.fc2", tokens, cfg.ffn, cfg.hidden);
    g.Add(p + "ffn.residual", 1, 1, 1, static_cast<int>(tokens * cfg.hidden));
    g.LayerNorm(p + "ffn.ln", tokens, cfg.hidden);
  }
  g.Linear("head", tokens, cfg.hidden, cfg.vocab / 8.0);  // tied/sampled softmax head
  g.Loss("loss", tokens, cfg.vocab / 8.0);
}

// --- LLM token-generation (extension, paper §7). ---------------------------

// Serving-LLM (LlmModelConfig) shape constants: FFN inner dim = kLlmFfnMult
// * hidden, and the vocabulary the embedding/lm-head table covers.
constexpr double kLlmFfnMult = 4.0;
constexpr int kLlmVocab = 32000;

// One transformer decoder layer at `rows` query rows attending to `context`
// KV positions. Shared by the prefill builder (rows = context = prompt), the
// decode-step builder (rows = batch, context = cache length) and the legacy
// kLlmDecode workload. Skinny GEMMs (rows = batch) are dominated by
// streaming the weight matrix, hence memory-bound — the §7 observation.
void BuildLlmLayer(GraphBuilder& g, const LlmModelConfig& cfg, const std::string& p,
                   double rows, double context) {
  const double head_dim = static_cast<double>(cfg.hidden) / cfg.heads;
  const double ffn = kLlmFfnMult * cfg.hidden;
  g.Linear(p + "qkv", rows, cfg.hidden, 3.0 * cfg.hidden);
  g.Gemm(p + "attn.scores", rows * cfg.heads, context, head_dim);
  g.Softmax(p + "attn.softmax", rows * cfg.heads, context);
  g.Gemm(p + "attn.context", rows * cfg.heads, head_dim, context);
  g.Linear(p + "attn.out", rows, cfg.hidden, cfg.hidden);
  g.LayerNorm(p + "ln1", rows, cfg.hidden);
  g.Linear(p + "ffn.fc1", rows, cfg.hidden, ffn);
  g.Gelu(p + "ffn.gelu", rows * ffn);
  g.Linear(p + "ffn.fc2", rows, ffn, cfg.hidden);
  g.LayerNorm(p + "ln2", rows, cfg.hidden);
}

// The kLlmDecode workload: kDecodeSteps tokens of the default LlmModelConfig,
// every step attending to a kContext-token KV cache.
void BuildLlmDecode(GraphBuilder& g, int batch) {
  constexpr int kContext = 512;
  constexpr int kDecodeSteps = 8;
  const LlmModelConfig cfg;
  const double b = batch;
  for (int step = 0; step < kDecodeSteps; ++step) {
    const std::string t = "tok" + std::to_string(step) + ".";
    g.Embedding(t + "embed", b, cfg.hidden);
    for (int layer = 0; layer < cfg.layers; ++layer) {
      BuildLlmLayer(g, cfg, t + "layer" + std::to_string(layer) + ".", b, kContext);
    }
    g.Linear(t + "lm_head", b, cfg.hidden, 4000.0);  // sampled softmax head
  }
}

std::vector<gpusim::KernelDesc> FinishLlmGraph(const gpusim::DeviceSpec& device,
                                               GraphBuilder& g, std::uint64_t base) {
  std::vector<KernelWork> work = g.Finish();
  std::vector<gpusim::KernelDesc> kernels;
  kernels.reserve(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    kernels.push_back(BuildKernel(device, work[i], base | static_cast<std::uint64_t>(i)));
  }
  return kernels;
}

}  // namespace

const char* ModelName(ModelId model) {
  switch (model) {
    case ModelId::kResNet50:
      return "resnet50";
    case ModelId::kMobileNetV2:
      return "mobilenetv2";
    case ModelId::kResNet101:
      return "resnet101";
    case ModelId::kBert:
      return "bert";
    case ModelId::kTransformer:
      return "transformer";
    case ModelId::kLlmDecode:
      return "llm-decode";
  }
  return "invalid";
}

bool IsVisionModel(ModelId model) {
  return model == ModelId::kResNet50 || model == ModelId::kMobileNetV2 ||
         model == ModelId::kResNet101;
}

WorkloadSpec MakeWorkload(ModelId model, TaskType task) {
  // Table 1 batch sizes.
  int batch = 1;
  if (task == TaskType::kInference) {
    batch = model == ModelId::kBert ? 2 : 4;
  } else if (model == ModelId::kLlmDecode) {
    batch = 4;  // decode is memory-bound regardless of (small) batch
  } else {
    switch (model) {
      case ModelId::kResNet50:
      case ModelId::kResNet101:
        batch = 32;
        break;
      case ModelId::kMobileNetV2:
        batch = 64;
        break;
      case ModelId::kBert:
      case ModelId::kTransformer:
        batch = 8;
        break;
      case ModelId::kLlmDecode:
        batch = 4;
        break;
    }
  }
  return MakeWorkload(model, task, batch);
}

WorkloadSpec MakeWorkload(ModelId model, TaskType task, int batch_size) {
  ORION_CHECK(batch_size >= 1);
  return WorkloadSpec{model, task, batch_size};
}

std::string WorkloadName(const WorkloadSpec& spec) {
  std::string name = ModelName(spec.model);
  name += spec.task == TaskType::kInference ? "-inf" : "-train";
  name += "-bs" + std::to_string(spec.batch_size);
  return name;
}

namespace {

// Expands `spec`'s layer graph into `g`. Shared by kernel building and the
// parameter/memory estimators (graphs are cheap to rebuild).
void BuildModelGraph(GraphBuilder& g, const WorkloadSpec& spec) {
  switch (spec.model) {
    case ModelId::kResNet50:
      BuildResNet(g, ResNetConfig{{3, 4, 6, 3}}, spec.batch_size);
      break;
    case ModelId::kResNet101:
      BuildResNet(g, ResNetConfig{{3, 4, 23, 3}}, spec.batch_size);
      break;
    case ModelId::kMobileNetV2:
      BuildMobileNetV2(g, spec.batch_size);
      break;
    case ModelId::kBert: {
      // BERT-large for inference, BERT-base for training (Table 1).
      const TransformerConfig cfg =
          spec.task == TaskType::kInference
              ? TransformerConfig{24, 1024, 16, 128, 4096, 30522}
              : TransformerConfig{12, 768, 12, 128, 3072, 30522};
      BuildTransformerStack(g, cfg, spec.batch_size);
      break;
    }
    case ModelId::kTransformer: {
      // Transformer-XL base-ish: 16 layers, d_model 512, seq 192.
      const TransformerConfig cfg{16, 512, 8, 192, 2048, 32000};
      BuildTransformerStack(g, cfg, spec.batch_size);
      break;
    }
    case ModelId::kLlmDecode:
      BuildLlmDecode(g, spec.batch_size);
      break;
  }
}

// Embedding-table parameters the layer graph does not enumerate (vocab *
// hidden); NLP models hold them on-device alongside the layer weights.
double EmbeddingParams(const WorkloadSpec& spec) {
  if (spec.model == ModelId::kBert) {
    return spec.task == TaskType::kInference ? 30522.0 * 1024 : 30522.0 * 768;
  }
  if (spec.model == ModelId::kTransformer) {
    return 32000.0 * 512;
  }
  if (spec.model == ModelId::kLlmDecode) {
    return 32000.0 * 2048;  // vocab embedding + KV cache ride on this
  }
  return 0.0;
}

}  // namespace

std::vector<gpusim::KernelDesc> BuildKernels(const gpusim::DeviceSpec& device,
                                             const WorkloadSpec& spec) {
  ORION_CHECK_MSG(spec.model != ModelId::kLlmDecode || spec.task == TaskType::kInference,
                  "LLM decode is an inference-only workload");
  GraphBuilder g(spec.task);
  BuildModelGraph(g, spec);
  std::vector<KernelWork> work = g.Finish();
  std::vector<gpusim::KernelDesc> kernels;
  kernels.reserve(work.size());
  // Stable kernel ids: (model, task, index). Index fits comfortably in 24
  // bits; model/task select the upper bits.
  const std::uint64_t base = (static_cast<std::uint64_t>(spec.model) << 40) |
                             (static_cast<std::uint64_t>(spec.task) << 32);
  for (std::size_t i = 0; i < work.size(); ++i) {
    kernels.push_back(BuildKernel(device, work[i], base | static_cast<std::uint64_t>(i)));
  }
  return kernels;
}

std::vector<runtime::Op> BuildRequestOps(const gpusim::DeviceSpec& device,
                                         const WorkloadSpec& spec) {
  std::vector<runtime::Op> ops;
  // Input copy: images for vision, token ids for NLP.
  runtime::Op input;
  input.type = runtime::OpType::kMemcpyH2D;
  if (IsVisionModel(spec.model)) {
    input.bytes = static_cast<std::size_t>(spec.batch_size) * 3 * 224 * 224 * 4;
  } else {
    input.bytes = static_cast<std::size_t>(spec.batch_size) * 256 * 8;
  }
  input.blocking = false;  // frameworks use pinned-buffer async copies
  ops.push_back(input);

  std::vector<gpusim::KernelDesc> kernels = BuildKernels(device, spec);
  for (gpusim::KernelDesc& kernel : kernels) {
    runtime::Op op;
    op.type = runtime::OpType::kKernelLaunch;
    op.kernel = std::move(kernel);
    ops.push_back(std::move(op));
  }

  if (spec.task == TaskType::kInference) {
    runtime::Op output;
    output.type = runtime::OpType::kMemcpyD2H;
    output.bytes = static_cast<std::size_t>(spec.batch_size) * 1000 * 4;
    output.blocking = true;  // result consumed by the client
    ops.push_back(output);
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].index_in_request = static_cast<std::uint32_t>(i);
  }
  ops.back().end_of_request = true;
  return ops;
}

std::size_t ApproxParameterBytes(const WorkloadSpec& spec) {
  GraphBuilder counter(spec.task);
  BuildModelGraph(counter, spec);
  (void)counter.Finish();
  return static_cast<std::size_t>((counter.total_params() + EmbeddingParams(spec)) * 4.0);
}

std::size_t ApproxModelStateBytes(const WorkloadSpec& spec) {
  // Rebuild the graph to query parameter/activation totals; graphs are cheap.
  GraphBuilder counter(spec.task);
  BuildModelGraph(counter, spec);
  (void)counter.Finish();
  // Parameters, plus gradient and momentum buffers when training; NLP models
  // additionally hold their embedding tables (vocab * hidden).
  const double state_copies = spec.task == TaskType::kTraining ? 3.0 : 1.0;
  const double param_bytes =
      (counter.total_params() + EmbeddingParams(spec)) * 4.0 * state_copies;
  // Activations: forward keeps every layer's output alive for backward.
  const double act_scale = spec.task == TaskType::kTraining ? 18.0 : 2.5;
  const double act_bytes = counter.activation_elems() * 4.0 * act_scale;
  // Framework/CUDA context overhead.
  const double overhead = 600.0 * 1024 * 1024;
  return static_cast<std::size_t>(param_bytes + act_bytes + overhead);
}

std::vector<runtime::Op> CaptureCudaGraphs(const std::vector<runtime::Op>& ops,
                                           std::vector<gpusim::KernelDesc>* kernels) {
  constexpr std::size_t kGraphCaptureLimit = 32;
  kernels->clear();
  kernels->reserve(ops.size());  // no regrowth, so the views below stay valid
  std::vector<runtime::Op> captured;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].type != runtime::OpType::kKernelLaunch) {
      captured.push_back(ops[i]);
      ++i;
      continue;
    }
    const std::size_t first = kernels->size();
    while (i < ops.size() && ops[i].type == runtime::OpType::kKernelLaunch &&
           kernels->size() - first < kGraphCaptureLimit) {
      kernels->push_back(ops[i].kernel);
      ++i;
    }
    runtime::Op graph;
    graph.type = runtime::OpType::kGraphLaunch;
    graph.graph_kernels = std::span<const gpusim::KernelDesc>(*kernels).subspan(first);
    captured.push_back(graph);
  }
  for (std::size_t j = 0; j < captured.size(); ++j) {
    captured[j].index_in_request = static_cast<std::uint32_t>(j);
    captured[j].end_of_request = j + 1 == captured.size();
  }
  return captured;
}

namespace {

// A template depends only on its inputs: kernel ids are built from (model,
// task, index) and the cost model is a pure function of the device.
struct TemplateKey {
  gpusim::DeviceSpec device;
  WorkloadSpec spec;
  bool cuda_graphs = false;

  auto operator<=>(const TemplateKey&) const = default;
};

struct TemplateMemo {
  std::mutex mutex;
  std::map<TemplateKey, RequestTemplate> templates;  // guarded by mutex
};

TemplateMemo& Memo() {
  static TemplateMemo memo;
  return memo;
}

}  // namespace

const RequestTemplate& SharedRequestTemplate(const gpusim::DeviceSpec& device,
                                             const WorkloadSpec& spec, bool cuda_graphs) {
  TemplateMemo& memo = Memo();
  TemplateKey key{device, spec, cuda_graphs};
  {
    const std::lock_guard<std::mutex> lock(memo.mutex);
    const auto it = memo.templates.find(key);
    if (it != memo.templates.end()) {
      return it->second;
    }
  }
  // Built outside the lock so distinct inputs can build concurrently. If
  // another thread stored the same key meanwhile, its entry is kept; the
  // two templates are equal. Entries are never erased, so references into
  // the map stay valid.
  RequestTemplate built;
  built.ops = BuildRequestOps(device, spec);
  if (cuda_graphs) {
    built.ops = CaptureCudaGraphs(built.ops, &built.graph_kernels);
  }
  built.state_bytes = ApproxModelStateBytes(spec);
  const std::lock_guard<std::mutex> lock(memo.mutex);
  return memo.templates.try_emplace(std::move(key), std::move(built)).first->second;
}

// --- LLM serving builders (prefill / per-step decode). ----------------------
//
// Kernel ids: the serving tier never feeds these into a profiler table, but
// ids must still be unique within one build. Tag bits 56+ distinguish the
// two builders from the (model, task) scheme of BuildKernels, and the shape
// parameters occupy the middle bits so distinct shapes get distinct ids.

std::vector<gpusim::KernelDesc> BuildLlmPrefillKernels(const gpusim::DeviceSpec& device,
                                                       const LlmModelConfig& cfg,
                                                       int prompt_tokens) {
  ORION_CHECK(prompt_tokens >= 1);
  ORION_CHECK(cfg.layers >= 1 && cfg.hidden >= cfg.heads && cfg.heads >= 1);
  GraphBuilder g(TaskType::kInference);
  const double t = prompt_tokens;
  g.Embedding("prefill.embed", t, cfg.hidden);
  for (int layer = 0; layer < cfg.layers; ++layer) {
    // Full self-attention over the prompt: rows == context == prompt length,
    // so the GEMMs are square-ish and compute-bound — the phase split §7
    // (and Orca/vLLM) key on.
    BuildLlmLayer(g, cfg, "prefill.layer" + std::to_string(layer) + ".", t, t);
  }
  // Logits for the last position only: prefill emits exactly one token.
  g.Linear("prefill.lm_head", 1.0, cfg.hidden, kLlmVocab / 8.0);
  const std::uint64_t base =
      (0x70ull << 56) | (static_cast<std::uint64_t>(prompt_tokens) << 20);
  return FinishLlmGraph(device, g, base);
}

std::vector<gpusim::KernelDesc> BuildLlmDecodeStepKernels(const gpusim::DeviceSpec& device,
                                                          const LlmModelConfig& cfg, int batch,
                                                          int context_tokens) {
  ORION_CHECK(batch >= 1);
  ORION_CHECK(context_tokens >= 1);
  GraphBuilder g(TaskType::kInference);
  const double b = batch;
  g.Embedding("decode.embed", b, cfg.hidden);
  for (int layer = 0; layer < cfg.layers; ++layer) {
    // One query row per sequence against the whole KV cache: every Linear
    // streams its weight matrix for `batch` rows — memory-bound throughout.
    BuildLlmLayer(g, cfg, "decode.layer" + std::to_string(layer) + ".", b, context_tokens);
  }
  g.Linear("decode.lm_head", b, cfg.hidden, kLlmVocab / 8.0);
  const std::uint64_t base = (0x71ull << 56) |
                             (static_cast<std::uint64_t>(batch) << 40) |
                             (static_cast<std::uint64_t>(context_tokens) << 20);
  return FinishLlmGraph(device, g, base);
}

std::size_t LlmKvBytesPerToken(const LlmModelConfig& cfg) {
  // K and V vectors of `hidden` fp32 elements, per layer.
  return static_cast<std::size_t>(2) * static_cast<std::size_t>(cfg.layers) *
         static_cast<std::size_t>(cfg.hidden) * 4;
}

std::size_t LlmWeightBytes(const LlmModelConfig& cfg) {
  // Per layer: qkv (3h²) + attention out (h²) + fc1/fc2 (2·kLlmFfnMult·h²).
  const double h = cfg.hidden;
  const double per_layer = (4.0 + 2.0 * kLlmFfnMult) * h * h;
  const double embedding = static_cast<double>(kLlmVocab) * h;
  return static_cast<std::size_t>((cfg.layers * per_layer + embedding) * 4.0);
}

}  // namespace workloads
}  // namespace orion
