// The paper's evaluation sweep (Section V): input sizes 50 KB–200 MB x
// pattern counts 100–20,000, three implementations (serial, global-only,
// shared) plus the store-scheme ablation. One run of this sweep supplies
// every figure (13–23); the bench binaries share its results through the
// result cache.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "gpusim/config.h"

namespace acgpu::harness {

struct SweepConfig {
  std::vector<std::uint64_t> sizes;           ///< input bytes
  std::vector<std::uint32_t> pattern_counts;
  std::uint32_t min_pattern_len = 4;
  std::uint32_t max_pattern_len = 16;
  std::uint64_t seed = 42;

  // Shared-approach launch geometry (Section IV: 8-12 KB of staged input
  // per block): 192 threads x 64 B chunks stages 12.3 KB.
  std::uint32_t chunk_bytes = 64;
  std::uint32_t threads_per_block = 192;
  // Global-only geometry: the paper sizes chunks so the whole input yields
  // enough threads to load the GPU; chunks are >= 128 B, so each lane's
  // byte reads land in their own 128 B segment — the uncoalesced pattern of
  // Fig 7. The actual chunk is clamp(size / global_target_threads,
  // 128, global_max_chunk_bytes), rounded to a word.
  std::uint32_t global_max_chunk_bytes = 1024;
  std::uint32_t global_target_threads = 61440;  ///< ~2 full occupancy waves
  std::uint32_t global_threads_per_block = 256;
  std::uint32_t match_capacity = 8;
  std::uint32_t sample_waves = 3;
  /// The global-only kernel's blocks are large (big chunks x 256 threads),
  /// so one occupancy wave already simulates tens of MB; keep its sampling
  /// cheaper than the shared kernel's.
  std::uint32_t global_sample_waves = 1;
  /// Patterns are cut from a corpus region disjoint from the scanned input,
  /// mirroring the paper's 50 GB pool (input and dictionary both from the
  /// pool, but not from the same bytes).
  std::uint64_t pattern_pool_bytes = 4 * 1024 * 1024;

  std::uint64_t device_bytes = 1ull << 30;   ///< GTX 285: 1 GB
  std::uint64_t cpu_sample_bytes = 2 * 1024 * 1024;  ///< serial-model sample

  gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();

  /// The paper's grid (representative points inside its stated ranges).
  static SweepConfig paper();
  /// A small grid for smoke tests and quick runs.
  static SweepConfig quick();

  /// Stable hash of every field that affects results; keys the result cache.
  std::string cache_key() const;
};

/// Per-approach simulation statistics retained for the figures.
struct ApproachStats {
  double seconds = 0;
  double sim_makespan_cycles = 0;
  std::uint64_t simulated_blocks = 0;
  double tex_hit_rate = 0;
  std::uint64_t tex_l2_misses = 0;
  double txn_per_request = 0;
  std::uint64_t issue_cycles = 0;
  std::uint64_t stall_global = 0;
  std::uint64_t stall_tex = 0;
  std::uint64_t stall_shared = 0;
  std::uint64_t stall_barrier = 0;
  std::uint64_t shared_conflict_cycles = 0;
  std::uint64_t warp_instructions = 0;
};

/// One (input size, pattern count) grid point.
struct PointResult {
  std::uint64_t text_bytes = 0;
  std::uint32_t pattern_count = 0;
  std::uint32_t dfa_states = 0;
  double stt_mbytes = 0;  ///< the device STT the dictionary uploads

  // Serial baseline: modeled Core2 (drives the figures) + host wall-clock
  // on this machine (reported for transparency).
  double serial_seconds = 0;
  double serial_cycles_per_byte = 0;
  double serial_l1_miss = 0;
  double serial_l2_miss = 0;
  double host_serial_seconds = 0;
  std::uint64_t match_count = 0;

  ApproachStats global;        ///< global-memory-only approach
  ApproachStats shared;        ///< shared approach, diagonal store scheme
  ApproachStats shared_naive;  ///< shared approach, coalesced-only naive store

  double gbps(double seconds) const {
    return static_cast<double>(text_bytes) * 8.0 / seconds / 1e9;
  }
  double serial_gbps() const { return gbps(serial_seconds); }
  double global_gbps() const { return gbps(global.seconds); }
  double shared_gbps() const { return gbps(shared.seconds); }
  double speedup_global() const { return serial_seconds / global.seconds; }
  double speedup_shared() const { return serial_seconds / shared.seconds; }
  double speedup_shared_vs_global() const { return global.seconds / shared.seconds; }
  double speedup_store_scheme() const { return shared_naive.seconds / shared.seconds; }
};

/// Runs the full sweep. Progress lines go to `progress` when non-null.
std::vector<PointResult> run_sweep(const SweepConfig& config, std::ostream* progress);

}  // namespace acgpu::harness
