// GPU device execution model.
//
// Reproduces the hardware behaviour Orion's policy depends on (§2 of the
// paper):
//   * Each CUDA stream is a FIFO work queue; ops on a stream execute in
//     order. Streams carry an integer priority.
//   * The hardware dispatcher assigns thread blocks to SMs in stream-priority
//     order, but NEVER preempts blocks that already started.
//   * A kernel whose blocks exceed free SM capacity starts partially and
//     absorbs SMs as they free up (wave execution), modelled as a progress
//     rate scaled by granted/needed SMs.
//   * Concurrent kernels contend for compute throughput and memory bandwidth:
//     if aggregate demand on either resource exceeds the device peak, all
//     resident kernels slow proportionally (shape validated against the
//     paper's Table 2 toy experiment).
//   * Host<->device copies run on a separate copy engine at PCIe bandwidth.
//   * CUDA events complete when all prior ops on their stream complete and
//     can be queried without blocking (cudaEventQuery, §5.1.2).
//
// Everything runs in virtual time on the discrete-event Simulator. Completion
// callbacks are delivered through zero-delay simulator events, so callbacks
// may freely enqueue new work without re-entering the device mid-update.
#ifndef SRC_GPUSIM_DEVICE_H_
#define SRC_GPUSIM_DEVICE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/ring.h"
#include "src/common/time_types.h"
#include "src/gpusim/device_spec.h"
#include "src/gpusim/host_link.h"
#include "src/gpusim/kernel.h"
#include "src/gpusim/utilization.h"
#include "src/sim/simulator.h"

namespace orion {
namespace gpusim {

using StreamId = int;
constexpr StreamId kInvalidStream = -1;

// Stream priorities: larger value = scheduled first, matching CUDA's
// "greatestPriority" semantics once mapped to an integer scale.
constexpr int kPriorityDefault = 0;
constexpr int kPriorityHigh = 1;

// Host-visible completion flag, the analogue of a cudaEvent_t.
struct GpuEvent {
  bool done = false;
  TimeUs completed_at = 0.0;
};

enum class MemcpyKind : std::uint8_t {
  kHostToDevice,
  kDeviceToHost,
  kDeviceToDevice,
};

// Trace record emitted for every kernel execution (used by the profiler and
// the utilization figures).
struct KernelExecRecord {
  std::uint64_t kernel_id = 0;
  KernelName name;
  StreamId stream = kInvalidStream;
  TimeUs start = 0.0;
  TimeUs end = 0.0;
  int sm_needed = 0;
};

class Device {
 public:
  // The simulator's event callback type, so delivering a completion moves
  // it into the event slot without wrapping it.
  using CompletionCb = Simulator::Callback;
  using KernelTraceSink = std::function<void(const KernelExecRecord&)>;

  Device(Simulator* sim, DeviceSpec spec);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceSpec& spec() const { return spec_; }

  StreamId CreateStream(int priority = kPriorityDefault);

  // --- Op submission (asynchronous; `done` fires via a zero-delay event). ---
  void LaunchKernel(StreamId stream, const KernelDesc& kernel, CompletionCb done = nullptr);
  void EnqueueMemcpy(StreamId stream, std::size_t bytes, MemcpyKind kind,
                     CompletionCb done = nullptr);
  void EnqueueMemset(StreamId stream, std::size_t bytes, CompletionCb done = nullptr);
  // Completes when every op previously enqueued on `stream` has completed.
  void RecordEvent(StreamId stream, GpuEvent* event, CompletionCb done = nullptr);
  // Enqueues an externally-executed op (e.g. a collective's link transfer,
  // src/collective): when the op reaches the stream head, `body` runs with a
  // completion callback, and the stream stays blocked until that callback
  // fires. This keeps external work FIFO-ordered with the stream's other ops
  // and visible to StreamIdle / SynchronizeDevice, without the device
  // knowing what the work is. The finish signal is copyable, so a body may
  // hand it to a std::function-based link fabric.
  using ExternalDone = std::function<void()>;
  using ExternalBody = std::function<void(ExternalDone)>;
  void EnqueueExternal(StreamId stream, ExternalBody body, CompletionCb done = nullptr);
  // Fires once every stream has drained (device-wide synchronisation, the
  // semantics cudaMalloc/cudaFree impose in §5.1.3).
  void SynchronizeDevice(CompletionCb done);

  // --- Introspection (used by schedulers, tests, and benches). ---
  int FreeSms() const;
  int BusySms() const;
  bool AnyKernelRunning() const;
  int RunningKernelCount() const;
  // SMs currently granted to kernels of this stream.
  int StreamBusySms(StreamId stream) const;
  bool StreamIdle(StreamId stream) const;
  // Alone-time µs already executed by this stream's resident (uncompleted)
  // kernels, integrated up to now(). The runaway watchdog's evidence
  // (src/core): a kernel starved of SMs has executed ~nothing however long
  // it has waited, while a runaway has executed far more than any trusted
  // expectation of its client's outstanding work.
  DurationUs StreamExecutedUs(StreamId stream);
  std::size_t kernels_completed() const { return kernels_completed_; }
  std::size_t memcpys_completed() const { return memcpys_completed_; }

  UtilizationTracker& utilization() { return utilization_; }
  const UtilizationTracker& utilization() const { return utilization_; }

  // Installs a sink invoked at each kernel completion with its exec record.
  void set_kernel_trace_sink(KernelTraceSink sink) { trace_sink_ = std::move(sink); }

  // PCIe-aware copy scheduling (§5.1.3 of the paper, future work there):
  // when enabled, (a) pending host<->device copies start in stream-priority
  // order instead of FIFO, and (b) bulk transfers proceed in chunks so a
  // high-priority copy waits at most one chunk, not a whole multi-megabyte
  // batch. Chunks in flight are never preempted.
  void set_pcie_priority_scheduling(bool enabled) { pcie_priority_ = enabled; }

  // --- Fault injection: partial device degradation (src/fault). ---
  // ECC retirement / thermal capping analogue: the device permanently loses
  // `sms_lost` SMs. Allocation targets are recomputed against the shrunken
  // pool immediately; resident kernels are never preempted, so grants above
  // the new capacity drain at block-retire speed through the normal
  // rebalance-quantum path.
  void DegradeSms(int sms_lost);
  // Multiplies the effective memory bandwidth by `factor` (0 < factor). All
  // resident kernels' memory pressure is measured against the degraded peak,
  // so memory-bound work slows proportionally and the interference model
  // tightens.
  void ScaleMembw(double factor);
  // SMs currently present (spec().num_sms minus degradation).
  int effective_sms() const { return effective_sms_; }

  // Multi-GPU plumbing (src/interconnect): routes the wire time of every
  // host<->device copy chunk through a shared link fabric, where it contends
  // with peer-to-peer and collective traffic, instead of the private
  // fixed-bandwidth pipe of spec().pcie_gbps. `gpu_index` is this device's
  // id in the fabric's topology. Copy queueing, stream ordering, chunking
  // and priority selection are unaffected. Device-to-device copies stay on
  // the internal path (they never cross the host fabric).
  void AttachHostLink(HostLinkModel* host_link, int gpu_index);

  // --- Debug oracle. ---
  // When on, every Reschedule recomputes the progress rates and allocation
  // targets from scratch and checks them bitwise against the cached ones,
  // a Reschedule that takes the clean-state path also checks that the
  // full grant loop would have retired, re-targeted and granted nothing,
  // and every launched kernel's sm_needed must equal SmsNeeded(spec(),
  // geometry) (a descriptor built for another device fails here). Any
  // divergence is a fatal ORION_CHECK. Meant for tests.
  void set_debug_oracle(bool on) { debug_oracle_ = on; }
  // Clean-state passes the oracle checked.
  std::size_t debug_oracle_checks() const { return debug_oracle_checks_; }

 private:
  struct Op {
    enum class Type : std::uint8_t { kKernel, kMemcpy, kMemset, kEvent, kExternal };
    // Largest-aligned first: a stream can hold thousands of queued ops.
    CompletionCb done;
    KernelDesc kernel;            // kKernel
    std::size_t bytes = 0;        // kMemcpy / kMemset
    GpuEvent* event = nullptr;    // kEvent
    std::uint64_t seq = 0;        // global submission order (determinism)
    Type type = Type::kKernel;
    MemcpyKind memcpy_kind = MemcpyKind::kHostToDevice;
  };

  struct Stream {
    int priority = kPriorityDefault;
    double weight = 1.0;          // water-filling weight, 4^priority
    common::Ring<Op> queue;       // ops not yet started (front = next)
    // Bodies of the queued kExternal ops, in queue order. Kept out of Op,
    // which they would make 48 bytes larger for every kernel.
    common::Ring<ExternalBody> externals;
    bool head_active = false;     // front-of-queue op currently executing
    // Completion of the executing op: a stream runs one op at a time, so
    // the kernel, copy, memset or external op that holds the stream keeps
    // its callback here until FinishOp delivers it.
    CompletionCb head_done;
  };

  struct RunningKernel {
    StreamId stream = kInvalidStream;
    KernelDesc desc;
    DurationUs remaining = 0.0;  // alone-time µs of work left
    int sm_needed = 0;           // demand, capped at device size
    double granted = 0.0;        // SMs currently held (fluid share)
    double target = 0.0;         // allocation target from the last rebalance
    // Expected lifetime of one thread-block wave: duration / wave count.
    // Determines how fast this kernel's SMs drain to other kernels when its
    // allocation target shrinks (blocks are never preempted; they retire).
    DurationUs block_duration = 0.0;
    TimeUs started_at = 0.0;
    std::uint64_t seq = 0;
  };

  // Progress rate of one SM-holding kernel, by its index in running_.
  struct KernelRate {
    std::size_t index = 0;
    double rate = 0.0;
  };

  struct PendingCopy {
    StreamId stream = kInvalidStream;
    std::size_t bytes = 0;            // bytes left to transfer
    bool started = false;             // some chunk already transferred
    int priority = kPriorityDefault;  // stream priority at enqueue time
    MemcpyKind kind = MemcpyKind::kHostToDevice;
    std::uint64_t seq = 0;
  };

  // Integrates running-kernel progress from last_update_ to now and records
  // the utilization interval.
  void AdvanceTo(TimeUs now);
  // Computes each kernel's SM allocation target: stream-priority tiers get
  // capacity first; within a tier, capacity splits proportionally to demand
  // (the hardware dispatcher round-robins block dispatch across streams).
  void ComputeTargets();
  // Fills (kernel index, progress rate) pairs for every kernel holding SMs,
  // applying the proportional resource slowdown and the cross-kernel memory
  // interference penalty.
  void ComputeRates(std::vector<KernelRate>* rates) const;
  // The cached ComputeRates result, recomputed only after a grant, the
  // running set or membw_factor_ changed. A newly started kernel holds no
  // SMs, so it has no rate and starting one keeps the cache.
  const std::vector<KernelRate>& Rates();
  // Grants free SMs to under-target kernels and (re)times the next
  // completion event. Grants only grow here; shrinks happen at rebalance
  // events one block-turnover quantum later, modelling that running thread
  // blocks are never preempted but retire continuously. When nothing
  // changed since the last full pass and the grant loop would change
  // nothing (CleanState), only progress and the completion time move.
  void Reschedule();
  bool CleanState() const;
  void CheckCleanStateOracle();
  void MaybeScheduleRebalance();
  double GrantedTotal() const;
  // Retires every running kernel whose remaining work reached zero.
  void CompleteFinishedKernels();
  // Starts the front op of `stream` if it is startable (event/memset resolve
  // immediately; memcpy goes to the copy engine; kernels wait for SMs).
  void ActivateStreamHead(StreamId stream);
  // Ends the executing op of `stream`: delivers its head_done and starts
  // the next op.
  void FinishOp(StreamId stream);
  void StartNextCopy();
  void CheckDeviceSync();
  // Schedules `cb` (if set) as a zero-delay event, moving it out.
  void DeliverCallback(CompletionCb&& cb);

  Simulator* sim_;
  DeviceSpec spec_;
  int effective_sms_ = 0;      // spec_.num_sms minus injected degradation
  double membw_factor_ = 1.0;  // remaining fraction of peak memory bandwidth
  std::vector<Stream> streams_;
  std::vector<RunningKernel> running_;  // insertion order = summation order
  std::uint64_t next_seq_ = 0;
  TimeUs last_update_ = 0.0;
  EventHandle completion_event_;
  bool in_reschedule_ = false;
  bool rebalance_pending_ = false;
  // A kernel started or retired, a rebalance tick re-granted, or the SM pool
  // shrank since the last full Reschedule pass.
  bool needs_full_pass_ = false;
  std::vector<KernelRate> rates_;
  bool rates_valid_ = false;
  bool debug_oracle_ = false;
  std::size_t debug_oracle_checks_ = 0;
  // Scratch for ComputeTargets and Reschedule (each runs at least once per
  // device event; reusing the buffers keeps the hot path allocation-free).
  std::vector<std::uint8_t> capped_scratch_;  // bytes, not std::vector<bool>
  std::vector<std::size_t> wanting_scratch_;
  std::vector<KernelRate> oracle_rates_;
  std::vector<double> oracle_targets_;

  // Copy engine: single queue, one transfer at a time.
  common::Ring<PendingCopy> copy_queue_;
  bool copy_active_ = false;
  bool pcie_priority_ = false;
  EventHandle copy_event_;
  HostLinkModel* host_link_ = nullptr;  // optional shared link fabric
  int gpu_index_ = 0;                   // this device's id in the fabric

  std::vector<CompletionCb> sync_waiters_;

  std::size_t kernels_completed_ = 0;
  std::size_t memcpys_completed_ = 0;
  UtilizationTracker utilization_;
  KernelTraceSink trace_sink_;
};

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_DEVICE_H_
