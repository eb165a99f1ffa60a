#include "src/collective/collective.h"

#include <set>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace collective {

namespace {

// Span name of every collective on the "collective" trace track.
constexpr const char* kAllReduceName = "all_reduce";
// Patience multiplier per consecutive step timeout.
constexpr double kTimeoutGrowth = 2.0;

}  // namespace

CollectiveEngine::CollectiveEngine(Simulator* sim, interconnect::Fabric* fabric)
    : sim_(sim), fabric_(fabric) {
  ORION_CHECK(sim_ != nullptr);
  ORION_CHECK(fabric_ != nullptr);
  BindInstruments();
}

void CollectiveEngine::set_telemetry(telemetry::Hub* hub) {
  hub_ = hub;
  BindInstruments();
}

void CollectiveEngine::BindInstruments() {
  telemetry::MetricRegistry& reg = hub_ != nullptr ? hub_->metrics() : local_metrics_;
  collectives_completed_ = reg.GetCounter("collective.completed");
  collectives_inflight_ = reg.GetGauge("collective.inflight");
  reformations_ = reg.GetCounter("collective.reformations");
  step_timeouts_ = reg.GetCounter("collective.step_timeouts");
  timeout_giveups_ = reg.GetCounter("collective.timeout_giveups");
  payload_bytes_total_ = reg.GetCounter("collective.payload_bytes");
  trace_track_ =
      hub_ != nullptr && hub_->tracing() ? hub_->spans().Track("collective") : -1;
}

void CollectiveEngine::BindCommStream(int gpu, gpusim::Device* device,
                                      gpusim::StreamId stream) {
  ORION_CHECK(device != nullptr);
  ORION_CHECK(stream != gpusim::kInvalidStream);
  channels_[gpu] = CommChannel{device, stream};
}

void CollectiveEngine::AllReduce(const std::vector<int>& ring_in, std::size_t bytes,
                                 Callback done) {
  ORION_CHECK(!ring_in.empty());
  const std::set<int> distinct(ring_in.begin(), ring_in.end());
  ORION_CHECK_MSG(distinct.size() == ring_in.size(), "ring has duplicate GPU ids");

  // GPUs already declared dead never rejoin: every new collective runs on
  // the survivors (the degraded world size the DDP harness observes).
  std::vector<int> ring;
  ring.reserve(ring_in.size());
  for (int gpu : ring_in) {
    if (dead_gpus_.count(gpu) == 0) {
      ring.push_back(gpu);
    }
  }

  collectives_inflight_->Add(1.0);
  payload_bytes_total_->Inc(static_cast<double>(bytes));

  const int n = static_cast<int>(ring.size());
  if (n <= 1 || bytes == 0) {
    sim_->ScheduleAfter(0.0, [this, done = std::move(done)]() mutable {
      collectives_completed_->Inc();
      collectives_inflight_->Add(-1.0);
      if (done) {
        done();
      }
    });
    return;
  }

  auto op = std::make_shared<RingOp>();
  op->ring = std::move(ring);
  op->payload_bytes = bytes;
  op->done = std::move(done);
  if (trace_track_ >= 0) {
    op->span_id = next_span_id_++;
    hub_->spans().AsyncBegin(trace_track_, op->span_id, kAllReduceName,
                             sim_->now(),
                             {{"bytes", std::to_string(bytes)},
                              {"world", std::to_string(n)}});
  }
  PlanSteps(op);
  RunStep(op);
}

void CollectiveEngine::PlanSteps(const std::shared_ptr<RingOp>& op) {
  const int n = static_cast<int>(op->ring.size());
  ORION_CHECK(n >= 2);
  // Payload split N ways; the remainder spreads over the leading chunks so
  // the chunk sizes sum exactly to the payload.
  const std::size_t base = op->payload_bytes / static_cast<std::size_t>(n);
  const std::size_t rem = op->payload_bytes % static_cast<std::size_t>(n);
  op->chunk_bytes.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t c = 0; c < op->chunk_bytes.size(); ++c) {
    op->chunk_bytes[c] = base + (c < rem ? 1 : 0);
  }
  op->total_steps = 2 * (n - 1);
}

void CollectiveEngine::RunStep(const std::shared_ptr<RingOp>& op) {
  const int n = static_cast<int>(op->ring.size());
  // (src, dst, bytes) sends of this step.
  struct Send {
    int src;
    int dst;
    std::size_t bytes;
  };
  // Ring step s: the GPU at position i forwards chunk (i - s) mod n to its
  // successor. Over the 2*(n-1) steps this puts exactly 2*(n-1)/n of the
  // payload on every ring-adjacent link direction.
  std::vector<Send> sends;
  for (int i = 0; i < n; ++i) {
    const int c = ((i - op->step) % n + n) % n;
    sends.push_back({op->ring[static_cast<std::size_t>(i)],
                     op->ring[static_cast<std::size_t>((i + 1) % n)],
                     op->chunk_bytes[static_cast<std::size_t>(c)]});
  }

  sim_->Cancel(op->timeout_event);
  op->timeout_event = EventHandle();
  op->inflight.clear();
  op->pending_in_step = static_cast<int>(sends.size());
  const std::uint64_t epoch = op->epoch;
  for (const Send& send : sends) {
    IssueSend(op, send.src, send.dst, send.bytes, [this, op, epoch]() {
      if (op->epoch != epoch) {
        return;  // completion from an abandoned (re-formed) attempt
      }
      if (--op->pending_in_step > 0) {
        return;
      }
      sim_->Cancel(op->timeout_event);
      op->timeout_event = EventHandle();
      op->timeouts = 0;
      ++op->step;
      if (op->step == op->total_steps) {
        FinishCollective(op);
      } else {
        RunStep(op);
      }
    });
  }
  ArmTimeout(op);
}

void CollectiveEngine::ArmTimeout(const std::shared_ptr<RingOp>& op) {
  if (options_.step_timeout_us <= 0.0) {
    return;
  }
  DurationUs timeout = options_.step_timeout_us;
  for (int i = 0; i < op->timeouts; ++i) {
    timeout *= kTimeoutGrowth;
  }
  op->timeout_event = sim_->ScheduleAfter(timeout, [this, op]() { OnStepTimeout(op); });
}

void CollectiveEngine::OnStepTimeout(const std::shared_ptr<RingOp>& op) {
  step_timeouts_->Inc();
  if (trace_track_ >= 0) {
    hub_->spans().Instant(trace_track_, "step-timeout", sim_->now(),
                          {{"step", std::to_string(op->step)},
                           {"kind", kAllReduceName}});
  }
  std::vector<int> alive;
  std::vector<int> dead;
  for (int gpu : op->ring) {
    (fabric_->GpuAlive(gpu) ? alive : dead).push_back(gpu);
  }
  if (dead.empty()) {
    // Every member is reachable: a flap or congestion. Wait it out with
    // growing patience; after kMaxStepTimeouts stop re-arming and let the
    // fabric deliver whenever it heals (bounds timer churn on a permanent
    // stall the plan never repairs).
    ++op->timeouts;
    if (op->timeouts >= kMaxStepTimeouts) {
      timeout_giveups_->Inc();
      return;
    }
    ArmTimeout(op);
    return;
  }

  // A member fell off the fabric: abandon this attempt and restart from
  // step 0 on the surviving ring. The epoch bump turns every outstanding
  // completion and queued comm-stream send of the old attempt into a no-op;
  // cancelling the in-flight transfers releases the comm streams they block.
  dead_gpus_.insert(dead.begin(), dead.end());
  ++op->epoch;
  for (interconnect::TransferId id : op->inflight) {
    fabric_->CancelTransfer(id);
  }
  op->inflight.clear();
  reformations_->Inc();
  if (trace_track_ >= 0) {
    hub_->spans().Instant(trace_track_, "ring-reformation", sim_->now(),
                          {{"survivors", std::to_string(alive.size())},
                           {"dead", std::to_string(dead.size())}});
  }
  op->ring = std::move(alive);
  op->step = 0;
  op->timeouts = 0;
  if (reform_listener_) {
    reform_listener_(op->ring);
  }
  if (op->ring.size() <= 1) {
    FinishCollective(op);  // a world of one has nothing left to exchange
    return;
  }
  PlanSteps(op);
  RunStep(op);
}

void CollectiveEngine::FinishCollective(const std::shared_ptr<RingOp>& op) {
  sim_->Cancel(op->timeout_event);
  op->timeout_event = EventHandle();
  collectives_completed_->Inc();
  collectives_inflight_->Add(-1.0);
  if (op->span_id != 0 && trace_track_ >= 0) {
    hub_->spans().AsyncEnd(trace_track_, op->span_id, kAllReduceName, sim_->now());
  }
  if (op->done) {
    Callback done = std::move(op->done);
    done();
  }
}

void CollectiveEngine::IssueSend(const std::shared_ptr<RingOp>& op, int src, int dst,
                                 std::size_t bytes, Callback done) {
  const std::uint64_t epoch = op->epoch;
  const auto channel = channels_.find(src);
  if (channel != channels_.end()) {
    // Bound GPUs issue through their comm stream: the send occupies the
    // stream until the wire transfer completes, FIFO with other comm
    // ops, and is visible to StreamIdle / SynchronizeDevice.
    channel->second.device->EnqueueExternal(
        channel->second.stream,
        [this, op, epoch, src, dst, bytes](gpusim::Device::ExternalDone on_wire_done) {
          if (op->epoch != epoch) {
            // The ring re-formed while this send sat queued behind other
            // comm traffic: skip the wire, just release the stream.
            sim_->ScheduleAfter(0.0, std::move(on_wire_done));
            return;
          }
          op->inflight.push_back(
              fabric_->StartTransfer(src, dst, bytes, std::move(on_wire_done)));
        },
        std::move(done));
    return;
  }
  op->inflight.push_back(fabric_->StartTransfer(src, dst, bytes, std::move(done)));
}

}  // namespace collective
}  // namespace orion
