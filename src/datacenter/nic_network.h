// The network legs of a multi-node cluster (DESIGN.md §12): each node's
// 100 GbE NIC into the one ToR switch is its own interconnect::Fabric. The
// cluster engine sends requests and model state to a node and responses back
// from it; NicNetwork holds each leg until it lands, or until a node death
// cancels it, and then hands it to the engine. Warm, it allocates nothing.
#ifndef SRC_DATACENTER_NIC_NETWORK_H_
#define SRC_DATACENTER_NIC_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/interconnect/fabric.h"
#include "src/serving/request.h"

namespace orion {
namespace datacenter {

class NicNetwork {
 public:
  // One payload crossing a NIC. A response cancelled by a node death still
  // completes, at the cancel instant: its batch had been served, and only
  // the notification is cut short (a documented simplification).
  struct Leg {
    enum class Kind : std::uint8_t { kRequest, kResponse, kState };
    Kind kind = Kind::kRequest;
    bool cancelled = false;  // set when CutNode cancelled the leg
    int node = -1;           // destination (request/state) or source (response)
    serving::Request request;                    // kRequest / kResponse payload
    std::optional<serving::RouteReason> forced;  // kRequest: routing reason override
    int replica_id = -1;                         // kResponse server / kState target
    TimeUs batch_start = 0.0;                    // kResponse
    TimeUs batch_end = 0.0;                      // kResponse
  };

  // One NIC per node; with a hub, each traces its transfers on its own
  // "n<node>/nic" track, registered in node order. `on_landed` runs when a
  // leg lands or is cancelled; the leg's slot is already free, so it may
  // send new legs.
  NicNetwork(Simulator* sim, int num_nodes, telemetry::Hub* hub,
             std::function<void(Leg&)> on_landed);
  NicNetwork(const NicNetwork&) = delete;
  NicNetwork& operator=(const NicNetwork&) = delete;

  // Puts a new `kind` leg on the NIC of `node`: requests and `state_bytes`
  // of model state travel toward the node, responses toward the front-end.
  // Returns the leg for the caller to fill in, in place, before the next
  // Send (which may move the slots): it lands at a later simulator event.
  Leg& Send(Leg::Kind kind, int node, std::size_t state_bytes = 0);
  // Node death: zeroes both directions of `node`'s NIC and cancels every leg
  // to or from it, in issue order.
  void CutNode(int node);
  // Payload bytes moved toward the nodes (requests and state) or toward the
  // front-end (responses).
  double BytesMoved(bool toward_nodes) const;

 private:
  // A leg in flight. `id` is its issue order, 0 marks a free slot; 32 bits,
  // so the fabric callback's (this, slot, id) capture fits std::function's
  // inline buffer.
  struct Slot {
    std::uint32_t id = 0;
    interconnect::TransferId transfer = 0;
    Leg leg;
  };

  void OnDone(std::uint32_t slot, std::uint32_t id);

  std::function<void(Leg&)> on_landed_;
  // The star has no shared links (every route is one host<->node NIC hop),
  // so a fabric per NIC is model-identical to one over the whole star, and
  // keeps each NIC's transfers, byte counters and faults apart. Endpoint 0
  // of each is the node; interconnect::kHostNode is the ToR side.
  std::vector<std::unique_ptr<interconnect::Fabric>> fabrics_;
  // Slot pool with a free list, so a leg costs no allocation once warm.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_id_ = 0;
};

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_NIC_NETWORK_H_
