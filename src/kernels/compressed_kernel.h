// GPU kernel over the COMPRESSED STT (ac/compressed_stt.h) — the extension
// that connects the paper's ref [19] (Zha/Scarpazza/Sahni's compressed AC)
// to the GPU memory hierarchy. The trade-off under study:
//
//   dense STT:      1 texel fetch per byte, but a table of states x byte
//                   classes (device_dfa.h; 56 ints a row for English
//                   dictionaries) that thrashes the texture caches at large
//                   dictionary sizes;
//   compressed STT: the table is 10-60x smaller than a byte-wide one and
//                   about 2x smaller than the class table (bitmap rows +
//                   explicit targets + a shared-memory root row), so the
//                   caches stay hotter, at the price of up to three fetches
//                   per byte.
//
// Device layout: a "rows" texture of 17 int32 columns per state (8 bitmap
// words, 8 prefix-popcount bases, 1 output id), a "targets" texture holding
// explicit transitions with the match flag packed into bit 31, and the
// 256-entry root row staged into shared memory (it is touched every time a
// byte falls back to the root default — almost every byte on deep states).
#pragma once

#include <cstdint>

#include "ac/compressed_stt.h"
#include "gpusim/launcher.h"
#include "kernels/ac_kernel.h"
#include "kernels/device_dfa.h"
#include "kernels/match_output.h"

namespace acgpu::kernels {

class DeviceCompressedDfa {
 public:
  /// Uploads the compressed table; keeps references to both host objects
  /// (they must outlive this object).
  DeviceCompressedDfa(gpusim::DeviceMemory& mem, const ac::CompressedStt& stt,
                      const ac::Dfa& dfa);

  const gpusim::Texture2D& rows_texture() const { return rows_tex_; }
  const gpusim::Texture2D& targets_texture() const { return targets_tex_; }
  gpusim::DevAddr root_row_addr() const { return root_addr_; }
  const ac::Dfa& host_dfa() const { return *dfa_; }
  std::uint32_t max_pattern_length() const { return dfa_->max_pattern_length(); }
  std::size_t device_bytes() const { return device_bytes_; }

  /// Width of the targets texture (targets index -> (x, y)).
  static constexpr std::uint32_t kTargetsWidth = 4096;
  /// rows texture columns: 0-7 bitmap, 8-15 prefix base, 16 output id.
  static constexpr std::uint32_t kRowColumns = 17;

 private:
  const ac::Dfa* dfa_ = nullptr;
  gpusim::Texture2D rows_tex_;
  gpusim::Texture2D targets_tex_;
  gpusim::DevAddr root_addr_ = 0;
  std::size_t device_bytes_ = 0;
};

struct CompressedLaunchSpec {
  std::uint32_t chunk_bytes = 64;
  std::uint32_t threads_per_block = 192;
  std::uint32_t match_capacity = 8;
  std::uint32_t compute_per_byte = 10;  ///< popcount/rank adds a couple ALU ops
  gpusim::LaunchOptions sim{};
};

/// Shared-memory approach (diagonal staging) over the compressed table.
/// Outcome fields mirror run_ac_kernel's.
AcLaunchOutcome run_compressed_kernel(const gpusim::GpuConfig& config,
                                      gpusim::DeviceMemory& mem,
                                      const DeviceCompressedDfa& dcdfa,
                                      gpusim::DevAddr text_addr,
                                      std::uint64_t text_len,
                                      const CompressedLaunchSpec& spec);

}  // namespace acgpu::kernels
