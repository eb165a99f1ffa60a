#include "src/serving/batcher.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace serving {

const char* DispatchReasonName(DispatchReason reason) {
  switch (reason) {
    case DispatchReason::kBatchingOff:
      return "batching-off";
    case DispatchReason::kFullBatch:
      return "full-batch";
    case DispatchReason::kLingerExpired:
      return "linger-expired";
    case DispatchReason::kDrain:
      return "drain";
    case DispatchReason::kContinuous:
      return "continuous";
  }
  return "unknown";
}

DynamicBatcher::DynamicBatcher(const BatchingConfig& config) : config_(config) {
  ORION_CHECK(config.max_queue_delay_us >= 0.0);
}

void DynamicBatcher::Enqueue(Request request, TimeUs now) {
  request.enqueue_us = now;
  queue_.push_back(request);
}

bool DynamicBatcher::ShouldDispatch(TimeUs now) const {
  if (queue_.empty()) {
    return false;
  }
  if (!config_.enabled) {
    return true;
  }
  if (static_cast<int>(queue_.size()) >= kMaxBatchSize) {
    return true;
  }
  return now >= LingerDeadline();
}

DispatchReason DynamicBatcher::WhyDispatch(TimeUs now) const {
  if (!config_.enabled) {
    return DispatchReason::kBatchingOff;
  }
  if (static_cast<int>(queue_.size()) >= kMaxBatchSize) {
    return DispatchReason::kFullBatch;
  }
  (void)now;
  return DispatchReason::kLingerExpired;
}

TimeUs DynamicBatcher::LingerDeadline() const {
  ORION_CHECK(!queue_.empty());
  return queue_.front().enqueue_us + config_.max_queue_delay_us;
}

void DynamicBatcher::TakeBatchInto(std::vector<Request>* out) {
  ORION_CHECK(!queue_.empty());
  const int take = config_.enabled ? kMaxBatchSize : 1;
  out->clear();  // keeps capacity: a replica's reused buffer stops allocating
  out->reserve(std::min<std::size_t>(static_cast<std::size_t>(take), queue_.size()));
  while (!queue_.empty() && static_cast<int>(out->size()) < take) {
    out->push_back(queue_.front());
    queue_.pop_front();
  }
}

std::vector<Request> DynamicBatcher::Drain() {
  std::vector<Request> all(queue_.begin(), queue_.end());
  queue_.clear();
  return all;
}

const Request& DynamicBatcher::Front() const {
  ORION_CHECK(!queue_.empty());
  return queue_.front();
}

Request DynamicBatcher::PopFront() {
  ORION_CHECK(!queue_.empty());
  Request request = std::move(queue_.front());
  queue_.pop_front();
  return request;
}

void DynamicBatcher::Requeue(Request request) {
  queue_.push_front(std::move(request));
}

}  // namespace serving
}  // namespace orion
