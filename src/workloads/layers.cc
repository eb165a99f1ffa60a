#include "src/workloads/layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace workloads {
namespace {

constexpr double kBytesPerElem = 4.0;  // fp32 everywhere (§6.1: full precision)

double Ceil(double a, double b) { return std::ceil(a / b); }

}  // namespace

gpusim::LaunchGeometry GraphBuilder::GemmGeometry(double m, double n) {
  // Tiled GEMM with a CUBLAS/CUDNN-style tile ladder: prefer big tiles, but
  // shrink them until the grid is large enough to fill a datacenter GPU
  // (vendor libraries pick tiles by heuristic for exactly this reason —
  // without it, small-batch GEMMs would occupy a handful of SMs).
  struct Tile {
    int tm, tn, regs, smem;
  };
  constexpr Tile kTiles[] = {
      {128, 128, 96, 32 * 1024}, {128, 64, 80, 24 * 1024}, {64, 64, 64, 16 * 1024},
      {64, 32, 48, 12 * 1024},   {32, 32, 40, 8 * 1024},
  };
  constexpr double kTargetBlocks = 160.0;  // ~2 waves on an 80-SM device
  gpusim::LaunchGeometry geom;
  geom.threads_per_block = 256;
  for (const Tile& tile : kTiles) {
    geom.num_blocks = static_cast<int>(std::max(1.0, Ceil(m, tile.tm) * Ceil(n, tile.tn)));
    geom.registers_per_thread = tile.regs;
    geom.shared_mem_per_block = tile.smem;
    if (geom.num_blocks >= kTargetBlocks) {
      break;
    }
  }
  return geom;
}

gpusim::LaunchGeometry GraphBuilder::ElementwiseGeometry(double elems) {
  // Grid-stride loop: 256 threads x 4 elements per thread.
  gpusim::LaunchGeometry geom;
  geom.num_blocks = static_cast<int>(std::max(1.0, Ceil(elems, 1024)));
  geom.threads_per_block = 256;
  geom.registers_per_thread = 20;
  geom.shared_mem_per_block = 0;
  return geom;
}

gpusim::LaunchGeometry GraphBuilder::RowReduceGeometry(double rows) {
  // One block per row (softmax/layernorm style).
  gpusim::LaunchGeometry geom;
  geom.num_blocks = static_cast<int>(std::max(1.0, rows));
  geom.threads_per_block = 128;
  geom.registers_per_thread = 32;
  geom.shared_mem_per_block = 4 * 1024;
  return geom;
}

void GraphBuilder::Push(KernelWork fwd, std::vector<KernelWork> bwd, double params) {
  const double footprint =
      fwd.footprint_elems > 0.0 ? fwd.footprint_elems : fwd.bytes / kBytesPerElem;
  activation_elems_ = std::max(activation_elems_, footprint);
  forward_.push_back(std::move(fwd));
  if (task_ == TaskType::kTraining) {
    for (KernelWork& work : bwd) {
      work.phase = gpusim::KernelPhase::kBackward;
      backward_.push_back(std::move(work));
    }
    if (params > 0.0) {
      param_groups_.push_back(params);
    }
  }
  total_params_ += params;
}

void GraphBuilder::Conv2d(const std::string& name, int batch, int in_c, int out_c, int out_h,
                          int out_w, int kernel, int groups) {
  ORION_CHECK(groups >= 1 && in_c % groups == 0);
  const double outputs = static_cast<double>(batch) * out_c * out_h * out_w;
  const double k2icg = static_cast<double>(kernel) * kernel * (in_c / groups);
  const double flops = 2.0 * outputs * k2icg;
  const double params = k2icg * out_c;
  // DRAM traffic: tiled convolutions re-read input patches and weights
  // several times (imperfect cache reuse), so dense convs move ~6x the naive
  // unique-footprint traffic — this puts their bandwidth utilization near
  // the ~20% the paper measures for Conv2d (§3.2). The depthwise case
  // (groups == in_c) has tiny FLOPs and is memory-bound either way, matching
  // MobileNetV2's profile in Fig. 4.
  const double in_elems = static_cast<double>(batch) * in_c * out_h * out_w;
  // 1x1 convolutions are plain GEMMs (panel re-streaming only, ~2.5x); 3x3+
  // tiles re-read overlapping input windows (~6x); depthwise reads once.
  const double traffic_factor = groups > 1 ? 1.5 : (kernel == 1 ? 2.5 : 6.0);
  const double bytes = traffic_factor * (in_elems + params + outputs) * kBytesPerElem;

  KernelWork fwd;
  fwd.name = name;
  fwd.flops = flops;
  fwd.bytes = bytes;
  fwd.footprint_elems = in_elems + params + outputs;
  fwd.compute_eff = groups == 1 ? 0.68 : 0.30;  // dense convs: winograd/implicit-gemm; depthwise less efficient
  fwd.mem_eff = 0.72;
  fwd.phase = gpusim::KernelPhase::kForward;
  // Implicit-GEMM geometry: M = batch*oh*ow, N = out_c.
  fwd.geometry = GemmGeometry(static_cast<double>(batch) * out_h * out_w, out_c);
  if (groups > 1) {
    fwd.geometry = ElementwiseGeometry(outputs / 2.0);
    fwd.geometry.registers_per_thread = 40;
  }

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork dgrad = fwd;
    dgrad.name = name + ".dgrad";
    KernelWork wgrad = fwd;
    wgrad.name = name + ".wgrad";
    wgrad.bytes = (in_elems + outputs + params) * kBytesPerElem;
    bwd = {dgrad, wgrad};
  }
  Push(std::move(fwd), std::move(bwd), params);
}

void GraphBuilder::BatchNorm2d(const std::string& name, int batch, int channels, int h, int w) {
  const double elems = static_cast<double>(batch) * channels * h * w;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 6.0 * elems;
  fwd.bytes = 3.2 * elems * kBytesPerElem;  // two read passes + one write, stats cached
  fwd.compute_eff = 0.45;
  fwd.mem_eff = 0.80;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(elems / 2.0);
  fwd.geometry.registers_per_thread = 32;

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    back.flops = 9.0 * elems;
    back.bytes = 4.5 * elems * kBytesPerElem;
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd), 2.0 * channels);
}

void GraphBuilder::Relu(const std::string& name, int batch, int channels, int h, int w) {
  const double elems = static_cast<double>(batch) * channels * h * w;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = elems;
  fwd.bytes = 2.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.40;
  fwd.mem_eff = 0.85;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(elems);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    back.bytes = 3.0 * elems * kBytesPerElem;
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Add(const std::string& name, int batch, int channels, int h, int w) {
  const double elems = static_cast<double>(batch) * channels * h * w;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = elems;
  fwd.bytes = 3.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.40;
  fwd.mem_eff = 0.85;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(elems);
  // Backward of an add is gradient fan-out: no extra kernel in most
  // frameworks (views), so none is emitted.
  Push(std::move(fwd), {});
}

void GraphBuilder::Pool(const std::string& name, int batch, int channels, int out_h, int out_w,
                        int kernel) {
  const double outputs = static_cast<double>(batch) * channels * out_h * out_w;
  const double reads = outputs * kernel * kernel;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = reads;
  fwd.bytes = (reads / 2.0 + outputs) * kBytesPerElem;  // halved reads: cache reuse
  fwd.compute_eff = 0.35;
  fwd.mem_eff = 0.70;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(outputs);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Gemm(const std::string& name, double m, double n, double k) {
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 2.0 * m * n * k;
  // Tiled GEMMs re-stream their operand panels ~2.5x the unique footprint.
  fwd.bytes = 2.5 * (m * k + k * n + m * n) * kBytesPerElem;
  fwd.footprint_elems = m * k + k * n + m * n;
  fwd.compute_eff = 0.66;
  fwd.mem_eff = 0.70;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = GemmGeometry(m, n);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork da = fwd;
    da.name = name + ".dgrad";
    da.geometry = GemmGeometry(m, k);
    KernelWork db = fwd;
    db.name = name + ".wgrad";
    db.geometry = GemmGeometry(k, n);
    bwd = {da, db};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Linear(const std::string& name, double batch_rows, double in_features,
                          double out_features) {
  const double params = in_features * out_features + out_features;
  // Reuse Gemm kernel shapes but account parameters for the update phase.
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 2.0 * batch_rows * in_features * out_features;
  fwd.bytes =
      2.5 * (batch_rows * in_features + params + batch_rows * out_features) * kBytesPerElem;
  fwd.footprint_elems = batch_rows * in_features + params + batch_rows * out_features;
  fwd.compute_eff = 0.66;
  fwd.mem_eff = 0.70;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = GemmGeometry(batch_rows, out_features);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork da = fwd;
    da.name = name + ".dgrad";
    da.geometry = GemmGeometry(batch_rows, in_features);
    KernelWork db = fwd;
    db.name = name + ".wgrad";
    db.geometry = GemmGeometry(in_features, out_features);
    bwd = {da, db};
  }
  Push(std::move(fwd), std::move(bwd), params);
}

void GraphBuilder::Softmax(const std::string& name, double rows, double cols) {
  const double elems = rows * cols;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 5.0 * elems;
  fwd.bytes = 3.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.40;
  fwd.mem_eff = 0.80;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = RowReduceGeometry(rows);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    back.bytes = 4.0 * elems * kBytesPerElem;
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::LayerNorm(const std::string& name, double rows, double cols) {
  const double elems = rows * cols;
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 8.0 * elems;
  fwd.bytes = 3.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.40;
  fwd.mem_eff = 0.80;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = RowReduceGeometry(rows);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    back.bytes = 4.5 * elems * kBytesPerElem;
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd), 2.0 * cols);
}

void GraphBuilder::Gelu(const std::string& name, double elems) {
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 10.0 * elems;
  fwd.bytes = 2.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.45;
  fwd.mem_eff = 0.85;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(elems);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    back.bytes = 3.0 * elems * kBytesPerElem;
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Dropout(const std::string& name, double elems) {
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = 2.0 * elems;
  fwd.bytes = 3.0 * elems * kBytesPerElem;
  fwd.compute_eff = 0.40;
  fwd.mem_eff = 0.80;
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(elems);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";
    bwd = {back};
  }
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Embedding(const std::string& name, double tokens, double hidden) {
  KernelWork fwd;
  fwd.name = name;
  fwd.flops = tokens * hidden;
  fwd.bytes = 2.0 * tokens * hidden * kBytesPerElem;  // gather + write
  fwd.compute_eff = 0.30;
  fwd.mem_eff = 0.55;  // gather pattern wastes bandwidth
  fwd.phase = gpusim::KernelPhase::kForward;
  fwd.geometry = ElementwiseGeometry(tokens * hidden);

  std::vector<KernelWork> bwd;
  if (task_ == TaskType::kTraining) {
    KernelWork back = fwd;
    back.name = name + ".bwd";  // scatter-add of gradients
    bwd = {back};
  }
  // Embedding tables are parameters but their sparse update is folded into
  // the scatter-add backward kernel, so no dense update group is added.
  Push(std::move(fwd), std::move(bwd));
}

void GraphBuilder::Loss(const std::string& name, double rows, double cols) {
  if (task_ != TaskType::kTraining) {
    return;
  }
  const double elems = rows * cols;
  KernelWork loss;
  loss.name = name;
  loss.flops = 6.0 * elems;
  loss.bytes = 3.0 * elems * kBytesPerElem;
  loss.compute_eff = 0.40;
  loss.mem_eff = 0.75;
  loss.phase = gpusim::KernelPhase::kForward;
  loss.geometry = RowReduceGeometry(rows);
  Push(std::move(loss), {});
}

std::vector<KernelWork> GraphBuilder::Finish() {
  std::vector<KernelWork> out = forward_;
  if (task_ == TaskType::kTraining) {
    // Backward kernels run in reverse layer order; backward_ was built
    // front-first per layer, so reverse the whole list.
    out.insert(out.end(), backward_.rbegin(), backward_.rend());
    // Update phase: one SGD-with-momentum kernel per parameter group. These
    // are the short, low-utilization kernels that profile as "unknown".
    for (std::size_t g = 0; g < param_groups_.size(); ++g) {
      const double params = param_groups_[g];
      KernelWork update;
      update.name = "sgd_update." + std::to_string(g);
      update.flops = 4.0 * params;
      update.bytes = 5.0 * params * kBytesPerElem;  // p, g, momentum read+write
      update.compute_eff = 0.25;
      update.mem_eff = 0.45;
      update.has_roofline = false;  // Nsight has no roofline for these (§3.1)
      update.phase = gpusim::KernelPhase::kUpdate;
      update.geometry = ElementwiseGeometry(params);
      update.geometry.registers_per_thread = 24;
      out.push_back(std::move(update));
    }
  }
  return out;
}

}  // namespace workloads
}  // namespace orion
