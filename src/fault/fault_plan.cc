#include "src/fault/fault_plan.h"

namespace orion {
namespace fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceDegrade:
      return "device_degrade";
    case FaultKind::kLinkDegrade:
      return "link_degrade";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kGpuDown:
      return "gpu_down";
    case FaultKind::kClientCrash:
      return "client_crash";
    case FaultKind::kClientHang:
      return "client_hang";
    case FaultKind::kProfilePoison:
      return "profile_poison";
    case FaultKind::kNodeDown:
      return "node_down";
  }
  return "invalid";
}

}  // namespace fault
}  // namespace orion
