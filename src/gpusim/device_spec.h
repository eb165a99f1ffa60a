// GPU device specifications and occupancy math.
//
// The specs mirror the two GPUs used in the paper's evaluation (V100-16GB and
// A100-40GB). Occupancy follows the formula in §5.2 of the paper: the number
// of thread blocks an SM can hold is limited by threads, registers, shared
// memory, and the architectural block cap; sm_needed is the block count
// divided by that per-SM capacity.
#ifndef SRC_GPUSIM_DEVICE_SPEC_H_
#define SRC_GPUSIM_DEVICE_SPEC_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace orion {
namespace gpusim {

struct DeviceSpec {
  std::string name;

  // SM geometry.
  int num_sms = 0;
  int max_threads_per_sm = 0;
  int max_registers_per_sm = 0;
  int max_shared_mem_per_sm = 0;  // bytes
  int max_blocks_per_sm = 0;

  // Throughput ceilings used by the interference model and the workload cost
  // model. fp32 since the paper runs full precision (§6.1).
  double peak_fp32_tflops = 0.0;
  double peak_membw_gbps = 0.0;

  // Host interconnect.
  double pcie_gbps = 0.0;
  double pcie_latency_us = 0.0;

  std::size_t memory_bytes = 0;

  // Member-wise, so every field (including ones added later) takes part in
  // keys such as the profiler's memo.
  auto operator<=>(const DeviceSpec&) const = default;

  static DeviceSpec V100_16GB();
  static DeviceSpec A100_40GB();
};

// Per-kernel launch geometry, as Nsight Compute reports it (§5.2).
struct LaunchGeometry {
  int num_blocks = 1;
  int threads_per_block = 128;
  int registers_per_thread = 32;
  int shared_mem_per_block = 0;  // bytes
};

// Number of thread blocks of this geometry that fit on one SM. Always >= 1
// for geometries that fit the device at all (a block that exceeds a per-SM
// limit cannot launch; we clamp to 1 and let callers validate).
int BlocksPerSm(const DeviceSpec& spec, const LaunchGeometry& geom);

// sm_needed_k = ceil(num_blocks_k / blocks_per_sm_k)  (§5.2).
int SmsNeeded(const DeviceSpec& spec, const LaunchGeometry& geom);

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_DEVICE_SPEC_H_
