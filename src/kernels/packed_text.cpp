#include "kernels/packed_text.h"

#include <algorithm>

namespace acgpu::kernels {
namespace {

constexpr std::uint32_t kEveryByte = 0x01010101u;

/// Code c's bit planes for symbol 0 of a packed byte: low bit at bit 0, high
/// bit at bit 4. Symbol k shifts them left by k.
constexpr std::uint8_t planes_of(unsigned code) {
  return static_cast<std::uint8_t>((code & 1u) | (code >> 1) << 4);
}

/// Moves bits 0..3 of `nibble` to bits 0, 8, 16 and 24. The multiplier's
/// shifts 0, 7, 14 and 21 put bit k at 8k and every cross term at a distinct
/// position that is not a multiple of 8, so one multiply and one mask do it.
constexpr std::uint32_t spread(std::uint32_t nibble) {
  return nibble * 0x204081u & kEveryByte;
}

}  // namespace

std::optional<SymbolTable> symbol_table(std::string_view text) {
  // The first four distinct values, byte by byte: text with a larger
  // alphabet stops here within a few bytes.
  SymbolTable table{};
  unsigned distinct = 0;
  std::size_t i = 0;
  for (; i < text.size() && distinct < table.size(); ++i) {
    const auto b = static_cast<std::uint8_t>(text[i]);
    if (std::find(table.begin(), table.begin() + distinct, b) == table.begin() + distinct)
      table[distinct++] = b;
  }
  if (distinct == 0) return std::nullopt;
  // The rest must be one of those four: a branch-free test per byte that
  // the compiler vectorises, with an exit at the first block holding a
  // fifth value.
  constexpr std::size_t kBlock = 1024;
  for (std::size_t block = i; block < text.size(); block += kBlock) {
    const std::size_t end = std::min(text.size(), block + kBlock);
    unsigned stray = 0;
    for (std::size_t j = block; j < end; ++j) {
      const auto b = static_cast<std::uint8_t>(text[j]);
      stray |= static_cast<unsigned>((b != table[0]) & (b != table[1]) & (b != table[2]) &
                                     (b != table[3]));
    }
    if (stray != 0) return std::nullopt;
  }
  std::sort(table.begin(), table.begin() + distinct);
  for (unsigned n = distinct; n < table.size(); ++n) table[n] = table[n - 1];
  return table;
}

void pack_text(std::string_view text, const SymbolTable& table, std::uint8_t* out) {
  // Walk the table backwards so a repeated entry codes as its first index.
  std::array<std::uint8_t, 256> planes{};
  for (unsigned c = table.size(); c-- > 0;) planes[table[c]] = planes_of(c);
  const auto at = [&](std::size_t i) -> unsigned {
    return planes[static_cast<std::uint8_t>(text[i])];
  };
  const std::size_t n = text.size();
  const std::size_t full = n / 4 * 4;
  for (std::size_t i = 0; i < full; i += 4)
    out[i / 4] =
        static_cast<std::uint8_t>(at(i) | at(i + 1) << 1 | at(i + 2) << 2 | at(i + 3) << 3);
  if (full == n) return;
  unsigned last = 0;
  for (std::size_t k = 0; full + k < n; ++k) last |= at(full + k) << k;
  out[full / 4] = static_cast<std::uint8_t>(last);
}

std::uint32_t unpack_word(std::uint8_t packed, const SymbolTable& table,
                          std::uint64_t first, std::uint64_t text_len) {
  // In every byte lane, code lo + 2*hi stands for
  //   t0 ^ lo*(t0^t1) ^ hi*(t0^t2) ^ lo*hi*(t0^t1^t2^t3),
  // and XOR keeps the lanes from carrying into each other.
  const std::uint32_t t0 = table[0] * kEveryByte;
  const std::uint32_t x1 = (table[0] ^ table[1]) * kEveryByte;
  const std::uint32_t x2 = (table[0] ^ table[2]) * kEveryByte;
  const std::uint32_t x3 = (table[0] ^ table[1] ^ table[2] ^ table[3]) * kEveryByte;
  const std::uint32_t lo = spread(packed & 0xfu);
  const std::uint32_t hi = spread(packed >> 4u);
  const std::uint32_t lo_mask = (lo << 8) - lo;  // 0x01 -> 0xff in every lane
  const std::uint32_t hi_mask = (hi << 8) - hi;
  std::uint32_t word = t0 ^ (hi_mask & x2) ^ (lo_mask & (x1 ^ (hi_mask & x3)));
  if (first + 4 > text_len)
    word &= first >= text_len ? 0u : (1u << (8 * (text_len - first))) - 1;
  return word;
}

}  // namespace acgpu::kernels
