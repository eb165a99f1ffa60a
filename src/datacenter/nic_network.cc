#include "src/datacenter/nic_network.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace datacenter {

// A 100 GbE NIC and one switch hop; and the serialized tensors a request and
// its response carry across it.
constexpr double kNicGbps = 12.5;
constexpr double kNicLatencyUs = 10.0;
constexpr std::size_t kRequestBytes = 32 * 1024;
constexpr std::size_t kResponseBytes = 128 * 1024;

NicNetwork::NicNetwork(Simulator* sim, int num_nodes, telemetry::Hub* hub,
                       std::function<void(Leg&)> on_landed)
    : on_landed_(std::move(on_landed)) {
  for (int n = 0; n < num_nodes; ++n) {
    fabrics_.push_back(std::make_unique<interconnect::Fabric>(
        sim, interconnect::NodeTopology::NicStar(kNicGbps, kNicLatencyUs)));
    if (hub != nullptr) {
      // Appended piecewise: gcc 12 reports a false -Wrestrict for
      // `"n" + string&&` once this is inlined.
      std::string track = "n";
      track += std::to_string(n);
      track += "/nic";
      fabrics_.back()->set_telemetry(hub, track);
    }
  }
}

NicNetwork::Leg& NicNetwork::Send(Leg::Kind kind, int node, std::size_t state_bytes) {
  ORION_CHECK_MSG(next_id_ < std::numeric_limits<std::uint32_t>::max(),
                  "network op ids exhausted");
  std::uint32_t index = 0;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot = Slot{};
  slot.id = ++next_id_;
  slot.leg.kind = kind;
  slot.leg.node = node;
  const bool to_node = kind != Leg::Kind::kResponse;
  const std::size_t bytes = kind == Leg::Kind::kRequest    ? kRequestBytes
                            : kind == Leg::Kind::kResponse ? kResponseBytes
                                                           : state_bytes;
  slot.transfer = fabrics_[static_cast<std::size_t>(node)]->StartTransfer(
      to_node ? interconnect::kHostNode : 0, to_node ? 0 : interconnect::kHostNode, bytes,
      [this, index, id = slot.id] { OnDone(index, id); });
  return slot.leg;
}

void NicNetwork::OnDone(std::uint32_t slot, std::uint32_t id) {
  ORION_CHECK(slot < slots_.size() && slots_[slot].id == id);
  Leg leg = std::move(slots_[slot].leg);
  slots_[slot].id = 0;
  free_slots_.push_back(slot);
  on_landed_(leg);
}

void NicNetwork::CutNode(int node) {
  interconnect::Fabric& fabric = *fabrics_[static_cast<std::size_t>(node)];
  fabric.SetLinkFactor(/*link=*/0, /*forward=*/true, 0.0);
  fabric.SetLinkFactor(/*link=*/0, /*forward=*/false, 0.0);
  // Issue order is id order, which slot order is not: a leg that finished
  // early frees its slot for a later one.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> doomed;  // (id, slot)
  for (std::uint32_t index = 0; index < slots_.size(); ++index) {
    Slot& slot = slots_[index];
    if (slot.id != 0 && slot.leg.node == node && !slot.leg.cancelled) {
      slot.leg.cancelled = true;
      doomed.emplace_back(slot.id, index);
    }
  }
  std::sort(doomed.begin(), doomed.end());
  for (const auto& [id, index] : doomed) {
    fabric.CancelTransfer(slots_[index].transfer);
  }
}

double NicNetwork::BytesMoved(bool toward_nodes) const {
  double bytes = 0.0;
  for (const auto& fabric : fabrics_) {
    // Each NIC's topology is one link, forward = host -> node.
    bytes += fabric->BytesMoved(/*link=*/0, /*forward=*/toward_nodes);
  }
  return bytes;
}

}  // namespace datacenter
}  // namespace orion
