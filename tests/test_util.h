// Shared helpers for Orion tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <string>

#include "src/gpusim/kernel.h"

namespace orion {
namespace testutil {

// Builds a kernel whose sm_needed equals `sms` exactly on V100/A100-class
// devices: 1024-thread blocks with 64 registers/thread occupy a full SM
// (register-limited to 1 block/SM).
inline gpusim::KernelDesc MakeKernel(const std::string& name, DurationUs duration_us,
                                     double compute_util, double membw_util, int sms) {
  gpusim::KernelDesc kernel;
  kernel.name = name;
  kernel.kernel_id = std::hash<std::string>{}(name);
  kernel.duration_us = duration_us;
  kernel.compute_util = compute_util;
  kernel.membw_util = membw_util;
  kernel.geometry.num_blocks = sms;
  kernel.geometry.threads_per_block = 1024;
  kernel.geometry.registers_per_thread = 64;
  kernel.geometry.shared_mem_per_block = 0;
  kernel.sm_needed = sms;
  return kernel;
}

}  // namespace testutil
}  // namespace orion

#endif  // TESTS_TEST_UTIL_H_
