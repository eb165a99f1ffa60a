// Layer-level graph builder: expands DNN layers into kernel work items.
//
// Models in the zoo are described layer by layer; the builder emits one or
// more KernelWork entries per layer for the forward pass and, for training
// workloads, records the matching backward kernels and per-layer parameter
// counts. Finish() lays the kernels out in execution order: forward, then
// backward (reverse layer order), then the optimizer update phase — whose
// small, low-utilization kernels are exactly the "unknown profile" kernels
// the paper observes in the update phase (§5.2).
//
// FLOP and byte counts follow standard analytic formulas; launch geometries
// approximate CUDNN/CUBLAS kernels (tiled GEMMs, channel-parallel reductions,
// grid-stride elementwise loops).
#ifndef SRC_WORKLOADS_LAYERS_H_
#define SRC_WORKLOADS_LAYERS_H_

#include <string>
#include <vector>

#include "src/workloads/cost_model.h"

namespace orion {
namespace workloads {

enum class TaskType { kInference, kTraining };

class GraphBuilder {
 public:
  explicit GraphBuilder(TaskType task) : task_(task) {}

  // --- Vision layers. Spatial sizes are post-op (output) height/width. ---
  void Conv2d(const std::string& name, int batch, int in_c, int out_c, int out_h, int out_w,
              int kernel, int groups = 1);
  void BatchNorm2d(const std::string& name, int batch, int channels, int h, int w);
  void Relu(const std::string& name, int batch, int channels, int h, int w);
  // Elementwise residual add.
  void Add(const std::string& name, int batch, int channels, int h, int w);
  void Pool(const std::string& name, int batch, int channels, int out_h, int out_w, int kernel);

  // --- Generic / NLP layers. ---
  void Gemm(const std::string& name, double m, double n, double k);
  void Softmax(const std::string& name, double rows, double cols);
  void LayerNorm(const std::string& name, double rows, double cols);
  void Gelu(const std::string& name, double elems);
  void Dropout(const std::string& name, double elems);
  void Embedding(const std::string& name, double tokens, double hidden);

  // Fully connected layer: GEMM with parameters tracked for the update phase.
  void Linear(const std::string& name, double batch_rows, double in_features,
              double out_features);

  // Terminal loss kernels for training graphs (softmax + loss grad).
  void Loss(const std::string& name, double rows, double cols);

  // Lays out forward [+ backward + update] kernel work in execution order.
  std::vector<KernelWork> Finish();

  double total_params() const { return total_params_; }
  // Peak activation element count (for memory-footprint estimation).
  double activation_elems() const { return activation_elems_; }

 private:
  // Appends `fwd` to the forward list; if training, prepends `bwd` entries to
  // the backward list (so Finish() yields reverse layer order) and registers
  // `params` parameters for the update phase.
  void Push(KernelWork fwd, std::vector<KernelWork> bwd, double params = 0.0);

  static gpusim::LaunchGeometry GemmGeometry(double m, double n);
  static gpusim::LaunchGeometry ElementwiseGeometry(double elems);
  static gpusim::LaunchGeometry RowReduceGeometry(double rows);

  TaskType task_;
  std::vector<KernelWork> forward_;
  std::vector<KernelWork> backward_;  // reverse execution order (built front-first)
  std::vector<double> param_groups_;  // per-layer parameter counts
  double total_params_ = 0.0;
  double activation_elems_ = 0.0;
};

}  // namespace workloads
}  // namespace orion

#endif  // SRC_WORKLOADS_LAYERS_H_
