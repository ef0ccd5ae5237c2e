// Simulated GPU parameters.
//
// The repo reproduces a CUDA paper without CUDA hardware, so timing comes
// from a discrete-event SIMT model. Every calibration constant lives here
// (and nowhere else); the gtx285() preset documents the provenance of each
// value. Absolute accuracy is explicitly out of scope — the model exists to
// reproduce the paper's *relative* effects (coalescing, bank conflicts,
// texture caching, latency hiding).
#pragma once

#include <cstdint>

namespace acgpu::gpusim {

struct GpuConfig {
  // --- chip topology -------------------------------------------------------
  std::uint32_t num_sms = 30;          ///< GT200: 30 SMs (paper: "240 thread processors")
  std::uint32_t sps_per_sm = 8;        ///< 8 scalar processors per SM
  std::uint32_t warp_size = 32;
  std::uint32_t max_blocks_per_sm = 8;   ///< GT200 resident-block limit
  std::uint32_t max_threads_per_sm = 1024;
  double clock_ghz = 1.476;            ///< GTX 285 shader clock

  // --- instruction issue ---------------------------------------------------
  /// A warp instruction executes over warp_size/sps_per_sm = 4 shader
  /// clocks on GT200; the SM issue port serialises warps.
  std::uint32_t cycles_per_warp_instr = 4;

  // --- shared memory -------------------------------------------------------
  std::uint32_t shared_mem_bytes = 16 * 1024;  ///< per SM, split across resident blocks
  std::uint32_t shared_banks = 16;             ///< GT200: 16 banks, 32-bit wide
  /// GT200 resolves conflicts per *half-warp* (16 lanes).
  std::uint32_t shared_conflict_group = 16;
  /// Service cycles for one conflict-free half-warp access; an n-way
  /// conflict costs n times this (serialised on the shared-memory port).
  std::uint32_t shared_service_cycles = 2;

  // --- global memory (device memory / G-DRAM) ------------------------------
  std::uint32_t global_latency_cycles = 450;   ///< load-to-use latency
  std::uint32_t coalesce_segment_bytes = 128;  ///< coalescing window
  /// Bandwidth occupancy of one 128-byte transaction on the shared memory
  /// system: GTX 285 moves ~159 GB/s; at the 1.476 GHz shader clock that is
  /// ~108 B/cycle, i.e. ~1.2 cycles per segment. Rounded up a little for
  /// DRAM inefficiency.
  double cycles_per_segment = 1.5;

  // --- texture path --------------------------------------------------------
  std::uint32_t tex_cache_bytes = 8 * 1024;  ///< per-SM L1 texture cache (approx.)
  std::uint32_t tex_cache_line_bytes = 32;
  std::uint32_t tex_cache_assoc = 4;
  /// Service cycles at the texture unit for a (cached) fetch by one warp.
  std::uint32_t tex_hit_cycles = 4;
  /// GPU-wide L2 texture cache. GT200 has ~256 KB of per-memory-partition
  /// texture L2; we size it at 512 KB because our LRU model has no
  /// prefetching or sectoring and would otherwise understate the real
  /// hierarchy's hit rate on hot STT rows. An L1 miss that hits L2 pays
  /// tex_l2_latency_cycles.
  std::uint32_t tex_l2_bytes = 512 * 1024;
  std::uint32_t tex_l2_assoc = 8;
  std::uint32_t tex_l2_latency_cycles = 180;
  /// An L2 miss pays the full global latency plus segment occupancy per line.
  std::uint32_t tex_miss_latency_cycles = 450;

  // --- synchronisation ------------------------------------------------------
  std::uint32_t barrier_cycles = 4;  ///< cost of __syncthreads once all arrive

  // --- host interconnect (PCIe) --------------------------------------------
  /// Sustained host<->device copy bandwidth. PCIe 2.0 x16 (GTX 285 era)
  /// moves ~5.2 GB/s nominal, ~4 GB/s sustained for large pinned transfers.
  double pcie_bytes_per_second = 4.0e9;
  /// Fixed per-transfer cost (driver launch + DMA setup).
  double pcie_latency_seconds = 10e-6;
  // The copy layout is Fermi-style on GT200 SMs: one upload queue and one
  // dedicated readback queue on the full-duplex link, each running beside
  // the one compute engine (gpusim/stream.h). GT200 itself had a single
  // copy engine for both directions.

  /// Resident blocks per SM for a kernel needing `shared_bytes` of shared
  /// memory and `threads` threads per block (occupancy calculation).
  std::uint32_t occupancy_blocks(std::uint32_t threads,
                                 std::uint32_t shared_bytes) const;

  /// Convert simulated cycles to seconds at the shader clock.
  double seconds(double cycles) const { return cycles / (clock_ghz * 1e9); }

  /// Nvidia GeForce GTX 285 (the paper's device).
  static GpuConfig gtx285();
};

}  // namespace acgpu::gpusim
