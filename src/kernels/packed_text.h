// 2-bit input packing for text of at most four distinct byte values (the
// DNA regime of Thambawita et al. and Kouzinopoulos et al., PAPERS.md). The
// host codes every byte against the text's own sorted symbol table and ships
// four symbols per byte; the shared-memory staging of ac_kernel.h expands
// each packed byte back into the word the byte path would have staged, so
// the matching phase reads exact bytes and never sees the packing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace acgpu::kernels {

/// Distinct byte values in ascending order: code c stands for table[c]. A
/// text with fewer than four values repeats its largest one.
using SymbolTable = std::array<std::uint8_t, 4>;

/// `text`'s symbol table, or nullopt when `text` is empty or holds more than
/// four distinct byte values.
std::optional<SymbolTable> symbol_table(std::string_view text);

/// Bytes `symbols` symbols pack into.
constexpr std::uint64_t packed_size(std::uint64_t symbols) { return (symbols + 3) / 4; }

/// Packs `text`, whose every byte is in `table`, into packed_size(text.size())
/// bytes at `out`. Byte i/4 holds symbols i..i+3 as two bit planes: bit k is
/// the low bit of symbol k's code and bit 4+k its high bit, the layout the
/// kernel's unpack expands in one pass. Codes past the text's end are 0.
void pack_text(std::string_view text, const SymbolTable& table, std::uint8_t* out);

/// The four symbols of packed byte `packed` as one little-endian word, symbol
/// k in bits 8k..8k+7, computed with the word-wide sequence the kernel's
/// instruction charge counts (ac_kernel.cpp). `first` is the text position
/// of symbol 0; symbols at or past `text_len` read 0, as the byte path's
/// zero padding does.
std::uint32_t unpack_word(std::uint8_t packed, const SymbolTable& table,
                          std::uint64_t first, std::uint64_t text_len);

}  // namespace acgpu::kernels
