// Compressed State Transition Table.
//
// The dense STT costs states x 257 x 4 bytes (123 MB at 20,000 patterns) —
// the paper's refs [19] (Zha, Scarpazza, Sahni) compress it to fit tighter
// memories. This implements the bitmap scheme: for every state, transitions
// that differ from the ROOT row's transition for the same byte are stored
// explicitly (a 256-bit bitmap plus a popcount-indexed target array);
// everything else falls back to the root row. Deep states differ from the
// root in only a handful of bytes, so the table shrinks by ~10-60x.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"

namespace acgpu::ac {

class CompressedStt {
 public:
  explicit CompressedStt(const Dfa& dfa);

  std::uint32_t state_count() const { return static_cast<std::uint32_t>(rows_.size()); }

  /// Exact equivalent of Dfa::next.
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    const Row& row = rows_[static_cast<std::size_t>(state)];
    const std::uint32_t word = byte >> 5;          // 8 words of 32 bits
    const std::uint32_t bit = byte & 31;
    const std::uint32_t mask = row.bitmap[word];
    if ((mask >> bit & 1) == 0) return root_row_[byte];
    // Rank of this bit: explicit targets are packed in byte order.
    std::uint32_t rank = row.base;
    for (std::uint32_t w = 0; w < word; ++w)
      rank += static_cast<std::uint32_t>(__builtin_popcount(row.bitmap[w]));
    rank += static_cast<std::uint32_t>(
        __builtin_popcount(mask & ((bit == 0 ? 0u : (~0u >> (32 - bit))))));
    return targets_[rank];
  }

  /// Exact equivalent of the STT match column.
  std::int32_t output_id(std::int32_t state) const {
    return output_ids_[static_cast<std::size_t>(state)];
  }

  /// Compressed footprint in bytes (bitmaps + targets + match column).
  std::size_t size_bytes() const;
  /// The paper's byte-wide STT bytes (states x Dfa::byte_pitch words) /
  /// compressed bytes.
  double compression_ratio() const { return ratio_; }

  // --- raw accessors for the GPU upload (kernels/compressed_kernel) ---
  std::uint32_t row_bitmap(std::int32_t state, std::uint32_t word) const {
    return rows_[static_cast<std::size_t>(state)].bitmap[word];
  }
  std::uint32_t row_base(std::int32_t state) const {
    return rows_[static_cast<std::size_t>(state)].base;
  }
  const std::vector<std::int32_t>& targets() const { return targets_; }
  std::int32_t root_next(std::uint8_t byte) const { return root_row_[byte]; }

 private:
  struct Row {
    std::uint32_t bitmap[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::uint32_t base = 0;  ///< index of this row's first explicit target
  };

  std::vector<Row> rows_;
  std::vector<std::int32_t> targets_;
  std::vector<std::int32_t> output_ids_;
  std::int32_t root_row_[256] = {};
  double ratio_ = 1.0;
};

/// Serial matcher over the compressed table; reports exactly what
/// match_serial reports. The Dfa supplies the output CSR (shared).
template <typename Sink>
void match_compressed(const CompressedStt& stt, const Dfa& dfa,
                      std::string_view text, Sink&& sink, std::uint64_t base = 0) {
  std::int32_t state = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = stt.next(state, static_cast<std::uint8_t>(text[i]));
    const std::int32_t oid = stt.output_id(state);
    if (oid != 0) {
      for (const std::int32_t* p = dfa.id_output_begin(oid);
           p != dfa.id_output_end(oid); ++p)
        sink(base + i, *p);
    }
  }
}

}  // namespace acgpu::ac
