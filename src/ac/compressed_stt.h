// Compressed State Transition Table.
//
// The paper's byte-wide STT costs states x 257 x 4 bytes (123 MB at 20,000
// patterns) — its ref [19] (Zha, Scarpazza, Sahni) compresses it to fit
// tighter memories. This implements the bitmap scheme in the DFA's byte-class
// space (ac::ByteClasses): for every state, the classes whose transition
// differs from the ROOT row's transition for the same class are stored
// explicitly (a bitmap of ceil(classes / 32) words plus a popcount-indexed
// target array, in class order); every other class falls back to the root
// row. Deep states differ from the root in only a handful of classes, so the
// table shrinks by ~10-60x against the byte-wide one.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"

namespace acgpu::ac {

class CompressedStt {
 public:
  explicit CompressedStt(const Dfa& dfa);

  std::uint32_t state_count() const { return static_cast<std::uint32_t>(bases_.size()); }
  /// The DFA's byte classes: the table's columns.
  const ByteClasses& classes() const { return classes_; }
  /// Bitmap words per row: ceil(classes().count / 32), 1 to 8.
  std::uint32_t bitmap_words() const { return words_; }

  /// Exact equivalent of Dfa::next: maps the byte to its class, then reads
  /// the explicit target or the root row's entry.
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    const std::uint32_t c = classes_.of_byte[byte];
    const std::uint32_t* bits = row_bits(state);
    const std::uint32_t word = c >> 5;
    const std::uint32_t bit = 1u << (c & 31);
    if ((bits[word] & bit) == 0) return root_row_[c];
    // Rank of this bit: explicit targets are packed in class order.
    std::uint32_t rank = bases_[static_cast<std::size_t>(state)];
    for (std::uint32_t w = 0; w < word; ++w)
      rank += static_cast<std::uint32_t>(std::popcount(bits[w]));
    rank += static_cast<std::uint32_t>(std::popcount(bits[word] & (bit - 1)));
    return targets_[rank];
  }

  /// Exact equivalent of the STT match column.
  std::int32_t output_id(std::int32_t state) const {
    return output_ids_[static_cast<std::size_t>(state)];
  }

  /// Compressed footprint in bytes (bitmaps, bases, targets, match column
  /// and root row).
  std::size_t size_bytes() const;
  /// The paper's byte-wide STT bytes (states x Dfa::byte_pitch words) /
  /// compressed bytes.
  double compression_ratio() const { return ratio_; }

  // --- raw accessors for the GPU upload (kernels/compressed_kernel) ---
  std::uint32_t row_bitmap(std::int32_t state, std::uint32_t word) const {
    return row_bits(state)[word];
  }
  /// Index of the state's first explicit target.
  std::uint32_t row_base(std::int32_t state) const {
    return bases_[static_cast<std::size_t>(state)];
  }
  const std::vector<std::int32_t>& targets() const { return targets_; }
  /// The root's transition on every class: classes().count entries.
  const std::vector<std::int32_t>& root_row() const { return root_row_; }

 private:
  const std::uint32_t* row_bits(std::int32_t state) const {
    return bitmaps_.data() + static_cast<std::size_t>(state) * words_;
  }

  ByteClasses classes_;
  std::uint32_t words_ = 0;
  std::vector<std::uint32_t> bitmaps_;  ///< words_ per state
  std::vector<std::uint32_t> bases_;
  std::vector<std::int32_t> targets_;
  std::vector<std::int32_t> output_ids_;
  std::vector<std::int32_t> root_row_;
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
