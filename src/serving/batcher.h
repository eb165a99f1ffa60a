// Dynamic batcher: per-replica request queue with batch-forming policy.
//
// Classic serving-system batching (Triton/Clipper style): a free replica
// dispatches immediately when a full batch is waiting, otherwise it lingers
// up to `max_queue_delay_us` measured from the oldest queued request's
// enqueue time, trading a bounded latency hit for the sub-linear batch cost
// the roofline gives (batch_cost.h). With batching disabled every dispatch
// takes exactly one request.
//
// Queue order is FIFO; a sequence evicted from a continuous-batching step
// is requeued at the head of the line.
//
// The batcher is pure queue logic — the serving engine owns the clock and
// the linger timers, which keeps this class directly unit-testable.
#ifndef SRC_SERVING_BATCHER_H_
#define SRC_SERVING_BATCHER_H_

#include <vector>

#include "src/common/ring.h"
#include "src/common/time_types.h"
#include "src/serving/request.h"

namespace orion {
namespace serving {

// Most requests one dispatch takes when batching is on.
inline constexpr int kMaxBatchSize = 8;

struct BatchingConfig {
  bool enabled = true;
  DurationUs max_queue_delay_us = 2000.0;  // linger bound from oldest enqueue
};

// Why a dispatch fired; recorded as the `reason` attribute on batch spans.
enum class DispatchReason : std::uint8_t {
  kBatchingOff,    // batching disabled: every free replica takes one request
  kFullBatch,      // a full batch was waiting
  kLingerExpired,  // the oldest request hit its queue-delay bound
  kDrain,          // draining a retiring replica
  kContinuous,     // iteration-level LLM step (no linger: steps self-chain)
};

const char* DispatchReasonName(DispatchReason reason);

class DynamicBatcher {
 public:
  explicit DynamicBatcher(const BatchingConfig& config);

  void Enqueue(Request request, TimeUs now);

  // True when a free replica should dispatch right now: a full batch is
  // waiting, the oldest request has lingered long enough, or batching is off.
  bool ShouldDispatch(TimeUs now) const;

  // The reason ShouldDispatch(now) holds. Only meaningful when it does.
  DispatchReason WhyDispatch(TimeUs now) const;

  // Absolute time at which the oldest queued request's linger bound expires.
  // Only meaningful when !empty().
  TimeUs LingerDeadline() const;

  // Removes the next batch (up to kMaxBatchSize requests, in queue order)
  // into `out`. `out` is cleared first and keeps its capacity, so a
  // replica's reused buffer stops allocating on the hot path.
  void TakeBatchInto(std::vector<Request>* out);

  // Removes and returns everything queued (failover re-routing).
  std::vector<Request> Drain();

  // Head access for continuous (iteration-level) batching: the engine joins
  // sequences one at a time, stopping at the first that does not fit in the
  // KV cache, so it peeks before popping. Only meaningful when !empty().
  const Request& Front() const;
  Request PopFront();

  // Puts an evicted (or KV-rejected) sequence back at the front of the
  // queue. enqueue_us is preserved (linger fairness).
  void Requeue(Request request);

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  const BatchingConfig& config() const { return config_; }

 private:
  BatchingConfig config_;
  common::Ring<Request> queue_;
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_BATCHER_H_
