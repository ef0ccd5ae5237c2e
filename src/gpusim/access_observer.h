// Access-recording hook points for the simulator — the seam the gpucheck/
// hazard auditor plugs into (LaunchOptions::observer).
//
// The scheduler calls the observer once when a launch starts (with the chip
// it simulates, so an auditor costs bank conflicts and coalescing on the
// launch's own geometry), at block dispatch/retire, once per
// warp-level memory instruction (before the data movement is performed), at
// every barrier arrival/release, and when a warp's coroutine completes. The
// observer sees the live Warp — identity, active mask, lane addresses,
// texture coordinates — and can veto individual lanes: the bitmask returned
// from memory_access() marks lanes whose data movement must be SUPPRESSED
// (an out-of-bounds access the auditor has already recorded; suppressed
// loads produce 0). That is what lets a cuda-memcheck-style tool report a
// hazard with full context and keep the simulation running instead of dying
// on the memory model's hard bounds check.
//
// With an observer attached the scheduler also releases a barrier when every
// *remaining* warp of the block is waiting even though other warps exited
// without reaching it — reporting the divergence instead of deadlocking, so
// deliberately-broken kernels can be audited end to end. Without an observer
// that situation remains the hard "unfinished blocks" error.
#pragma once

#include <cstdint>

namespace acgpu::gpusim {

struct GpuConfig;
class Warp;
enum class OpKind : std::uint8_t;

class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// A launch on `config` starts; called before its first block.
  virtual void launch_started(const GpuConfig& config) { (void)config; }

  /// A block's warps were created and scheduled (Functional mode: every
  /// block; Timed mode: the sampled ones).
  virtual void block_started(std::uint64_t block_id, std::uint32_t num_warps,
                             std::uint32_t block_threads,
                             std::uint32_t shared_bytes) {
    (void)block_id, (void)num_warps, (void)block_threads, (void)shared_bytes;
  }
  virtual void block_finished(std::uint64_t block_id) { (void)block_id; }

  /// One warp-level memory instruction (global/shared/texture access),
  /// observed BEFORE its data movement. Active lanes are those with
  /// warp.mask[l] set for l < warp.lane_count; addresses/coordinates are in
  /// the warp's lane buffers. Returns a bitmask (bit l = lane l) of lanes to
  /// suppress.
  virtual std::uint32_t memory_access(const Warp& warp, OpKind kind) {
    (void)warp, (void)kind;
    return 0;
  }

  /// `warp` issued __syncthreads and joined its block's barrier queue.
  virtual void barrier_arrival(const Warp& warp) { (void)warp; }
  /// All live warps of `block_id` arrived; the barrier released.
  virtual void barrier_release(std::uint64_t block_id) { (void)block_id; }

  /// `warp`'s coroutine ran to completion.
  virtual void warp_finished(const Warp& warp) { (void)warp; }

  /// `warp` finished while sibling warps were waiting at a barrier it never
  /// reached — barrier divergence. The scheduler releases the waiters (audit
  /// mode keeps going); the observer records the hazard.
  virtual void barrier_divergence(std::uint64_t block_id, const Warp& warp) {
    (void)block_id, (void)warp;
  }
};

}  // namespace acgpu::gpusim
