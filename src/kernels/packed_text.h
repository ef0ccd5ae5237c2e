// Input packing for text of at most 64 distinct symbol values. The AC
// kernel's symbols are the DFA's byte-class ids (device_dfa.h), so the
// pipeline packs the class text: bytes in no pattern share one value. The
// host codes every symbol against the text's own sorted symbol table and
// ships fixed-width codes: 2 bits per symbol when the text holds at most four
// values (the DNA regime of Thambawita et al. and Kouzinopoulos et al.,
// PAPERS.md), 6 bits when it holds at most 64 (natural-language text). The
// shared-memory staging of ac_kernel.h turns each group of four codes back
// into the word the byte path would have staged, so the matching phase reads
// the same class ids either way and never sees the packing.
//
// Symbols 4q .. 4q + 3, the text's word q, pack as:
//  - 2 bits: packed byte q, as two bit planes: bit k is the low bit of
//    symbol 4q + k's code and bit 4 + k its high bit;
//  - 6 bits: packed bytes 3q .. 3q + 2, one little-endian 24-bit group with
//    symbol 4q + k's code in bits 6k .. 6k + 5.
// Codes past the text's end are 0.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace acgpu::kernels {

/// Most distinct byte values a packed text may hold (6-bit codes).
inline constexpr std::uint32_t kMaxSymbols = 64;

/// A text's distinct byte values in ascending order: code c stands for
/// values[c]. Entries past `count` repeat the largest value.
struct SymbolTable {
  std::array<std::uint8_t, kMaxSymbols> values{};
  std::uint32_t count = 0;

  /// Code width: 2 bits for at most four values, 6 for at most 64.
  std::uint32_t bits() const { return count <= 4 ? 2 : 6; }

  bool operator==(const SymbolTable&) const = default;
};

/// `text`'s symbol table, or nullopt when `text` is empty or holds more than
/// kMaxSymbols distinct byte values.
std::optional<SymbolTable> symbol_table(std::string_view text);

/// Bits one symbol crosses PCIe at: the table's code width when the text
/// packs, 8 when it ships as bytes.
inline std::uint32_t symbol_bits(const std::optional<SymbolTable>& table) {
  return table ? table->bits() : 8;
}

/// Bytes `symbols` symbols take at `bits` bits each (8: the bytes themselves).
constexpr std::uint64_t packed_size(std::uint64_t symbols, std::uint32_t bits) {
  return (symbols * bits + 7) / 8;
}

/// Packs `text`, whose every byte is in `table`, at table.bits() bits per
/// symbol into packed_size(text.size(), table.bits()) bytes at `out`.
void pack_text(std::string_view text, const SymbolTable& table, std::uint8_t* out);

/// 2-bit tables only: the four symbols of packed byte `packed` as one
/// little-endian word, symbol k in bits 8k..8k+7, computed with the
/// word-wide sequence the kernel's instruction charge counts
/// (ac_kernel.cpp). `first` is the text position of symbol 0; symbols at or
/// past `text_len` read 0, as the byte path's zero padding does.
std::uint32_t unpack_word(std::uint8_t packed, const SymbolTable& table,
                          std::uint64_t first, std::uint64_t text_len);

}  // namespace acgpu::kernels
