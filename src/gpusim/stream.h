// CUDA-style streams and events on the simulated timeline.
//
// The scheduler (gpusim/scheduler.h) times ONE kernel launch; production
// throughput comes from overlapping host<->device copies with kernel
// execution across independent streams. StreamSim models that layer with a
// Fermi-style copy layout on the GT200 SMs of GpuConfig: one upload (H2D)
// queue, one dedicated readback (D2H) queue, so an upload and a readback
// overlap on the full-duplex PCIe link, one compute engine (no concurrent
// kernels), and per-stream FIFO ordering. (GT200 itself had one copy engine
// for both directions.) Operations resolve eagerly — enqueue order is issue
// order, so an op starts at max(stream ready, engine free, recorded
// dependencies) and the whole timeline is known as soon as the last op is
// enqueued.
//
// Functional side effects (the actual byte movement, the kernel's stores)
// happen at enqueue time in program order; only the *clock* is simulated.
// That keeps multi-launch pipelines exact in Functional mode while the
// timeline still shows copies and kernels overlapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/config.h"
#include "gpusim/host_observer.h"
#include "gpusim/launcher.h"

namespace acgpu::gpusim {

using StreamId = std::uint32_t;
using EventId = std::uint32_t;

/// What engine an operation occupies (and how the timeline renders it).
enum class StreamOpKind : std::uint8_t { kH2D, kD2H, kKernel };

const char* to_string(StreamOpKind kind);

/// One resolved operation on the simulated timeline.
struct StreamOp {
  static constexpr std::uint64_t kNoOp = ~std::uint64_t{0};

  std::uint64_t id = 0;
  StreamId stream = 0;
  StreamOpKind kind{};
  double start = 0;  ///< seconds on the simulated clock
  double end = 0;
  std::uint64_t bytes = 0;  ///< copies: payload size; kernels: 0
  std::string label;
  /// The earlier op whose end is this op's start: its stream's previous
  /// op, its engine's previous op, or the op an event it waited on
  /// recorded (the last op on the event's stream at record time). Ties go
  /// to the stream, then the engine; kNoOp when the op started at time 0.
  std::uint64_t bound_by = kNoOp;
};

/// The chain of ops that bound the makespan, followed back from the op that
/// ends last through each op's bound_by, split by engine. Each op on it
/// starts when the one before it ends, so the three parts sum to the
/// makespan.
struct CriticalPath {
  double h2d = 0;
  double kernel = 0;
  double d2h = 0;
};

/// Busy/overlap accounting over a resolved timeline.
struct OverlapStats {
  double copy_busy = 0;     ///< union of all transfer busy intervals (both directions)
  double h2d_busy = 0;      ///< union of upload (H2D) busy intervals
  double d2h_busy = 0;      ///< union of readback (D2H) busy intervals
  double compute_busy = 0;  ///< union of kernel busy intervals
  double overlapped = 0;    ///< time both engine classes were busy at once
  double makespan = 0;      ///< completion of the last operation
  /// Fraction of the hideable engine time actually hidden: overlapped over
  /// min(copy, compute) busy time. 1.0 = perfect copy/compute overlap.
  double overlap_ratio() const {
    const double hideable = copy_busy < compute_busy ? copy_busy : compute_busy;
    return hideable > 0 ? overlapped / hideable : 0.0;
  }
};

class StreamSim {
 public:
  StreamSim(const GpuConfig& config, DeviceMemory& gmem);

  StreamId create_stream();
  std::uint32_t stream_count() const { return static_cast<std::uint32_t>(streams_.size()); }

  /// Async host->device copy: bytes move NOW (program order), the copy-engine
  /// time is charged on the stream. Returns the op id (timeline() index).
  std::uint64_t memcpy_h2d(StreamId stream, DevAddr dst, const void* src,
                           std::size_t bytes, std::string label = {});
  /// Async device->host copy.
  std::uint64_t memcpy_d2h(StreamId stream, void* dst, DevAddr src,
                           std::size_t bytes, std::string label = {});
  /// Charges a device->host transfer without moving bytes — for Timed-mode
  /// pipelines where the payload size is known but the simulated kernel only
  /// produced a sample of it.
  std::uint64_t charge_d2h(StreamId stream, std::size_t bytes, std::string label = {});

  /// Enqueues a kernel launch: runs gpusim::launch immediately (side effects
  /// and timing), charges its simulated duration on the compute engine.
  LaunchResult launch(StreamId stream, const Texture2D* tex, const LaunchDims& dims,
                      KernelFn kernel, const LaunchOptions& options = {},
                      const Texture2D* tex2 = nullptr, std::string label = {});
  /// Charges a kernel of known duration without re-simulating it (timing
  /// reuse across same-shape batches).
  std::uint64_t charge_kernel(StreamId stream, double seconds, std::string label = {});

  /// Records an event capturing the completion time of all work enqueued on
  /// `stream` so far (cudaEventRecord).
  EventId record_event(StreamId stream);
  /// The next op enqueued on `stream` will not start before the event
  /// completes (cudaStreamWaitEvent). The event must already be recorded.
  void wait_event(StreamId stream, EventId event);

  double event_seconds(EventId event) const;
  /// Completion time of all work enqueued on `stream` so far.
  double stream_ready(StreamId stream) const;
  /// Completion time of one op.
  double op_end(std::uint64_t op_id) const;
  /// Completion time of everything enqueued so far (cudaDeviceSynchronize).
  double synchronize() const;

  const std::vector<StreamOp>& timeline() const { return timeline_; }
  OverlapStats overlap() const;
  CriticalPath critical_path() const;

  DeviceMemory& memory() { return gmem_; }
  const GpuConfig& config() const { return cfg_; }
  /// Simulated seconds one `bytes`-sized PCIe transfer takes.
  double transfer_seconds(std::size_t bytes) const;

  /// Attaches a hostcheck recorder (gpusim/host_observer.h): every enqueue,
  /// event record, and wait is reported from here on. Null detaches. The
  /// sim registers itself on attach, so records of successive sims never
  /// collide. Zero-cost when unattached (one branch per op).
  void set_host_observer(HostObserver* observer);
  HostObserver* host_observer() const { return host_observer_; }
  /// This sim's observer registration id (0 when unattached). Every record
  /// the sim reports carries it, so the auditor keeps each sim's ops,
  /// streams and events apart (cluster arenas overlap in offset space).
  std::uint32_t sim_id() const { return sim_id_; }

  /// Declares that op `op_id` reads or writes device range
  /// [addr, addr+bytes) — the annotation the happens-before auditor checks
  /// conflicting accesses over. No-op without an attached observer. Copy
  /// ops (memcpy_h2d/memcpy_d2h) annotate themselves; callers annotate
  /// kernel reads/writes, which only they know.
  void annotate(std::uint64_t op_id, DevAddr addr, std::uint64_t bytes,
                bool is_write);

 private:
  /// A completion time and the op that ends then (kNoOp for time 0).
  struct Mark {
    double at = 0;
    std::uint64_t op = StreamOp::kNoOp;
  };
  struct StreamState {
    Mark ready;        ///< completion of the stream's last op
    Mark pending_dep;  ///< dependency applied to the next op
  };

  StreamState& state(StreamId stream);
  double enqueue(StreamId stream, StreamOpKind kind, double duration,
                 std::uint64_t bytes, std::string label);

  GpuConfig cfg_;  // by value: callers may pass a temporary
  DeviceMemory& gmem_;
  HostObserver* host_observer_ = nullptr;
  std::uint32_t sim_id_ = 0;  ///< assigned by the observer on attach
  std::vector<StreamState> streams_;
  Mark upload_free_;    ///< the H2D queue
  Mark readback_free_;  ///< the D2H queue
  Mark compute_free_;
  std::vector<StreamOp> timeline_;
  std::vector<Mark> events_;
};

}  // namespace acgpu::gpusim
