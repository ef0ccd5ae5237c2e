// Device copy of the COMPRESSED STT (ac/compressed_stt.h) — the extension
// that connects the paper's ref [19] (Zha/Scarpazza/Sahni's compressed AC)
// to the GPU memory hierarchy. run_ac_kernel launches over it (ac_kernel.h):
// the same class text, staging and matching loop as over the dense table,
// with a different transition fetch. The trade-off under study:
//
//   dense STT:      1 texel fetch per byte, but a table of states x byte
//                   classes (device_dfa.h; 56 ints a row for English
//                   dictionaries) that thrashes the texture caches at large
//                   dictionary sizes;
//   compressed STT: a quarter of the dense class table or less (bitmap rows
//                   + explicit targets + a shared-memory root row), so the
//                   caches stay hotter, at the price of up to three fetches
//                   per byte.
//
// Device layout, W = ceil(classes / 32) bitmap words per row:
//  - a "rows" texture of 2W int32 columns per state: W bitmap words, then W
//    prefix bases (the index of the first explicit target of each word's
//    classes), 16 B a state at W = 2;
//  - a "targets" texture holding the explicit transitions in class order;
//  - the root row, one entry per class, which every block stages into shared
//    memory (a class whose bit is clear takes the root's transition: almost
//    every byte on deep states).
// Targets and root row carry the target's flag and depth bits
// (match_flag.h), as dense transition words do.
#pragma once

#include <cstdint>

#include "ac/compressed_stt.h"
#include "gpusim/device_memory.h"
#include "gpusim/texture.h"

namespace acgpu::kernels {

class DeviceCompressedDfa {
 public:
  /// Uploads `stt`, which must be `dfa`'s compressed table. Keeps a
  /// reference to `dfa` (for host-side expansion of the launch's state
  /// records); the Dfa must outlive this object.
  DeviceCompressedDfa(gpusim::DeviceMemory& mem, const ac::CompressedStt& stt,
                      const ac::Dfa& dfa);

  const gpusim::Texture2D& rows_texture() const { return rows_tex_; }
  const gpusim::Texture2D& targets_texture() const { return targets_tex_; }
  gpusim::DevAddr root_row_addr() const { return root_addr_; }
  const ac::Dfa& host_dfa() const { return *dfa_; }
  /// W: bitmap words per row, and the rows texture's column of the first
  /// prefix base.
  std::uint32_t bitmap_words() const { return words_; }
  /// Device bytes of the rows, the targets and the root row.
  std::size_t device_bytes() const { return device_bytes_; }

  /// Width of the targets texture (targets index -> (x, y)).
  static constexpr std::uint32_t kTargetsWidth = 4096;

 private:
  const ac::Dfa* dfa_ = nullptr;
  std::uint32_t words_ = 0;
  gpusim::Texture2D rows_tex_;
  gpusim::Texture2D targets_tex_;
  gpusim::DevAddr root_addr_ = 0;
  std::size_t device_bytes_ = 0;
};

}  // namespace acgpu::kernels
