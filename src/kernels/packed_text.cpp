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
  if (text.empty()) return std::nullopt;
  // Which values occur, block by block, with an exit at the first block that
  // takes the count past kMaxSymbols: random bytes stop within 4 KB.
  std::array<std::uint8_t, 256> seen{};
  constexpr std::size_t kBlock = 4096;
  for (std::size_t block = 0; block < text.size(); block += kBlock) {
    const std::size_t end = std::min(text.size(), block + kBlock);
    for (std::size_t j = block; j < end; ++j) seen[static_cast<std::uint8_t>(text[j])] = 1;
    if (std::count(seen.begin(), seen.end(), 1) > static_cast<std::ptrdiff_t>(kMaxSymbols))
      return std::nullopt;
  }
  SymbolTable table;
  for (unsigned v = 0; v < seen.size(); ++v)
    if (seen[v] != 0) table.values[table.count++] = static_cast<std::uint8_t>(v);
  std::fill(table.values.begin() + table.count, table.values.end(),
            table.values[table.count - 1]);
  return table;
}

void pack_text(std::string_view text, const SymbolTable& table, std::uint8_t* out) {
  // Walk the table backwards so a repeated entry codes as its first index.
  std::array<std::uint8_t, 256> code{};
  for (unsigned c = kMaxSymbols; c-- > 0;) code[table.values[c]] = static_cast<std::uint8_t>(c);
  const auto at = [&](std::size_t i) -> std::uint32_t {
    return code[static_cast<std::uint8_t>(text[i])];
  };
  const std::size_t n = text.size();
  const std::size_t full = n / 4 * 4;
  if (table.bits() == 2) {
    const auto planes = [&](std::size_t i) -> unsigned { return planes_of(at(i)); };
    for (std::size_t i = 0; i < full; i += 4)
      out[i / 4] = static_cast<std::uint8_t>(planes(i) | planes(i + 1) << 1 |
                                             planes(i + 2) << 2 | planes(i + 3) << 3);
    if (full == n) return;
    unsigned last = 0;
    for (std::size_t k = 0; full + k < n; ++k) last |= planes(full + k) << k;
    out[full / 4] = static_cast<std::uint8_t>(last);
    return;
  }
  const auto put = [&](std::size_t q, std::uint32_t group, std::size_t bytes) {
    for (std::size_t b = 0; b < bytes; ++b)
      out[3 * q + b] = static_cast<std::uint8_t>(group >> (8 * b));
  };
  for (std::size_t i = 0; i < full; i += 4)
    put(i / 4, at(i) | at(i + 1) << 6 | at(i + 2) << 12 | at(i + 3) << 18, 3);
  if (full == n) return;
  std::uint32_t last = 0;
  for (std::size_t k = 0; full + k < n; ++k) last |= at(full + k) << (6 * k);
  put(full / 4, last, packed_size(n, 6) - 3 * (full / 4));
}

std::uint32_t unpack_word(std::uint8_t packed, const SymbolTable& table,
                          std::uint64_t first, std::uint64_t text_len) {
  // In every byte lane, code lo + 2*hi stands for
  //   t0 ^ lo*(t0^t1) ^ hi*(t0^t2) ^ lo*hi*(t0^t1^t2^t3),
  // and XOR keeps the lanes from carrying into each other.
  const std::array<std::uint8_t, kMaxSymbols>& t = table.values;
  const std::uint32_t t0 = t[0] * kEveryByte;
  const std::uint32_t x1 = (t[0] ^ t[1]) * kEveryByte;
  const std::uint32_t x2 = (t[0] ^ t[2]) * kEveryByte;
  const std::uint32_t x3 = (t[0] ^ t[1] ^ t[2] ^ t[3]) * kEveryByte;
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
