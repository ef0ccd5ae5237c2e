// Sized staging-buffer pool for the three-stage pipeline.
//
// The pipeline's old staging layer was a fixed ring of device slots, each
// held from the start of its batch's H2D until the batch's D2H completed —
// so the upload of batch b+slots waited on a readback it did not depend on,
// and stream counts beyond 2 changed nothing. The pipeline's upload pool
// holds 2 device slice buffers per stream, each leased from H2D start to
// KERNEL end (the kernel is the last reader of the staged input). The
// readback needs no pool: its D2H already waits for the one readback queue.
//
// A lease records the simulated time its buffer frees (`ready`); acquire()
// hands out the buffer that frees earliest, so heterogeneous batches never
// rotate onto the slowest slot. The pool is also safe to drive from real
// host threads (mutex + condvar): `acquire_blocking` parks until a buffer
// is released, which is what the serve-side stress tests exercise under
// ACGPU_TSAN.
//
// Reuse-after-release hygiene: with `poison_on_release` set, every released
// buffer is filled with kPoisonByte before it re-enters the free list, so a
// stage that reads a buffer it no longer leases sees poison instead of the
// previous batch's bytes (tests/pipeline_pool_test.cpp proves the fill).
// The poison is also *verified* on the next lease: a buffer that comes back
// with any non-poison byte was scribbled on while un-leased — a
// use-after-release by some stage — and the pool throws instead of handing
// the corrupted buffer out.
//
// With a HostObserver attached (gpusim/host_observer.h), every acquire and
// release is recorded for the hostcheck happens-before auditor, which
// checks the full lease protocol (double-lease, release-while-in-flight,
// leaks at drain) against the stream timeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "gpusim/device_memory.h"
#include "gpusim/host_observer.h"

namespace acgpu::pipeline {

class StagingPool {
 public:
  /// The byte released buffers are filled with under poison_on_release.
  static constexpr std::uint8_t kPoisonByte = 0xDB;

  struct Options {
    std::uint32_t buffers = 2;        ///< pool depth (>= 1)
    std::uint64_t buffer_bytes = 0;   ///< payload bytes per buffer
    std::uint64_t pad_bytes = 8;      ///< tail pad (word-granular kernel loads)
    bool poison_on_release = false;   ///< scribble kPoisonByte on release
    /// With poison_on_release: check the poison is intact on the next
    /// acquire and throw acgpu::Error when any byte changed while the
    /// buffer was un-leased (a use-after-release scribble).
    bool verify_poison_on_lease = true;
    /// Lease/release recording sink for the hostcheck auditor; null = off.
    gpusim::HostObserver* observer = nullptr;
    /// Name the observer reports this pool under ("upload", ...).
    const char* name = "staging";
    /// The StreamSim this pool's buffers serve (StreamSim::sim_id()) —
    /// scopes the auditor's lease attribution to one device's offset space.
    std::uint32_t sim = 0;
  };

  /// One leased buffer. `ready` is the simulated timestamp at which the
  /// previous lease of this buffer drained — the producer must not issue an
  /// op that touches the buffer before then (wait_until on its stream).
  /// [[nodiscard]]: dropping a Lease leaks the buffer (there is no RAII
  /// release — the drain time is only known after the consumer resolves).
  struct [[nodiscard]] Lease {
    gpusim::DevAddr addr = 0;
    std::uint32_t index = 0;
    double ready = 0;
  };

  /// Allocates buffers*(buffer_bytes+pad_bytes) from `mem` up front. Throws
  /// acgpu::Error when the arena cannot hold the pool (callers translate to
  /// Status::capacity_exceeded) or buffers == 0.
  StagingPool(gpusim::DeviceMemory& mem, const Options& options);

  StagingPool(const StagingPool&) = delete;
  StagingPool& operator=(const StagingPool&) = delete;

  /// Hands out the free buffer whose previous lease drains earliest.
  /// Returns nullopt when every buffer is leased (pool exhausted) — the
  /// simulated pipeline treats that as a bug, host threads should use
  /// acquire_blocking.
  [[nodiscard]] std::optional<Lease> try_acquire();

  /// Blocks the calling host thread until a buffer frees. For real
  /// multi-threaded producers (stress tests, future host-parallel drivers);
  /// the single-threaded simulated pipeline never parks.
  [[nodiscard]] Lease acquire_blocking();

  /// Returns buffer `index` to the pool; `drained_at` is the simulated time
  /// its last consumer completes (the next lease's `ready`). Releasing an
  /// un-leased index throws.
  void release(std::uint32_t index, double drained_at = 0.0);

  std::uint32_t size() const { return static_cast<std::uint32_t>(slots_.size()); }
  std::uint64_t buffer_bytes() const { return options_.buffer_bytes; }
  std::uint32_t available() const;
  /// High-water mark of simultaneously leased buffers.
  std::uint32_t max_in_use() const;
  /// Total acquisitions served (try_acquire successes + acquire_blocking).
  std::uint64_t acquires() const;
  /// acquire_blocking calls that had to park for a release.
  std::uint64_t exhaustion_waits() const;

 private:
  struct Slot {
    gpusim::DevAddr addr = 0;
    double ready = 0;   ///< simulated drain time of the last lease
    bool leased = false;
    bool poisoned = false;  ///< released with poison; verified on re-lease
  };

  Lease lease_locked(std::uint32_t index);

  gpusim::DeviceMemory& mem_;
  Options options_;
  std::uint32_t pool_id_ = 0;  ///< observer registration (when attached)

  mutable std::mutex mu_;
  std::condition_variable available_cv_;
  std::vector<Slot> slots_;
  std::uint32_t in_use_ = 0;
  std::uint32_t max_in_use_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t exhaustion_waits_ = 0;
};

}  // namespace acgpu::pipeline
