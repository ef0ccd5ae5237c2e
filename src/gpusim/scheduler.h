// Discrete-event SIMT engine.
//
// Models: per-SM in-order issue port (warps serialise on it), per-SM shared
// memory unit (service time = bank-conflict degree), per-SM texture unit +
// texture cache, and one GPU-wide global memory system (latency plus
// per-segment bandwidth occupancy). Warps are coroutines that suspend at
// every instruction; blocks are dispatched to SMs as slots free, exactly
// like hardware block scheduling.
//
// Timing extrapolation: thread blocks of a data-parallel kernel are
// homogeneous, so the engine can simulate a sample of the grid (enough
// "waves" to reach steady state) and scale the makespan to the full grid —
// see Launcher. In Functional mode every block runs, which is what the
// correctness tests use.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "gpusim/access_observer.h"
#include "gpusim/config.h"
#include "gpusim/metrics.h"
#include "gpusim/task.h"
#include "gpusim/warp.h"
#include "util/set_assoc_cache.h"

namespace acgpu::gpusim {

/// Grid geometry of a launch.
struct LaunchDims {
  std::uint64_t grid_blocks = 0;
  std::uint32_t block_threads = 0;
  std::uint32_t shared_bytes = 0;  ///< shared memory per block (0 = none)
};

/// Factory invoked once per simulated warp. The Warp reference stays valid
/// for the coroutine's lifetime.
using KernelFn = std::function<WarpTask(Warp&)>;

struct RunStats {
  double makespan_cycles = 0;        ///< simulated time for the simulated blocks
  std::uint64_t simulated_blocks = 0;
  Metrics metrics;
};

class Scheduler {
 public:
  /// `observer` (optional) receives the access-recording callbacks of
  /// gpusim/access_observer.h and switches the barrier logic to the lenient
  /// audit behaviour described there.
  Scheduler(const GpuConfig& config, DeviceMemory& gmem, const Texture2D* tex,
            const LaunchDims& dims, KernelFn kernel,
            const Texture2D* tex2 = nullptr, AccessObserver* observer = nullptr);

  /// Simulates exactly the given block ids (sorted ascending recommended).
  RunStats run(const std::vector<std::uint64_t>& block_ids);

 private:
  struct BlockRun;

  struct WarpRun {
    Warp warp;
    WarpTask task;
    BlockRun* block = nullptr;
    OpKind last_stall = OpKind::None;
  };

  struct BlockRun {
    std::uint64_t block_id = 0;
    std::uint32_t sm = 0;
    std::unique_ptr<SharedMemory> smem;
    std::vector<std::unique_ptr<WarpRun>> warps;
    std::uint32_t done_warps = 0;
    std::vector<WarpRun*> barrier_queue;
    double barrier_latest_arrival = 0;
  };

  struct Sm {
    double issue_free = 0;
    double shared_free = 0;
    double tex_free = 0;
    std::unique_ptr<util::SetAssocCache> tcache;  ///< texture L1
    std::uint32_t resident = 0;
  };

  struct Event {
    double time = 0;
    std::uint64_t seq = 0;
    WarpRun* warp = nullptr;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  void dispatch_block(std::uint64_t block_id, std::uint32_t sm, double time);
  void finish_block(BlockRun* block, double time);
  /// Executes one step of `w` at event time `t`: resume the coroutine, cost
  /// the instruction it issued, perform data movement, schedule its resume.
  void step_warp(WarpRun* w, double t);
  void schedule(WarpRun* w, double time);

  // Instruction handlers: return the warp's ready time given issue end.
  double handle_global(WarpRun* w, double issued);
  double handle_shared(WarpRun* w, double issued);
  double handle_tex(WarpRun* w, double issued, const Texture2D* texture);

  /// Releases `block`'s barrier queue at `release` time, notifying the
  /// observer; `issued` is the arrival time used for stall accounting.
  void release_barrier(BlockRun* block, double release, double issued);

  const GpuConfig& cfg_;
  DeviceMemory& gmem_;
  const Texture2D* tex_;
  const Texture2D* tex2_;
  LaunchDims dims_;
  KernelFn kernel_;
  AccessObserver* observer_ = nullptr;
  std::uint32_t warps_per_block_;

  std::vector<Sm> sms_;
  std::unique_ptr<util::SetAssocCache> tex_l2_;  ///< GPU-wide texture L2
  double mem_pipe_free_ = 0;  ///< global memory system bandwidth pipe
  std::vector<std::uint64_t> pending_blocks_;  // stack of not-yet-dispatched ids
  std::vector<std::unique_ptr<BlockRun>> active_blocks_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::uint64_t next_seq_ = 0;
  double last_time_ = 0;
  Metrics metrics_;
};

}  // namespace acgpu::gpusim
