// Input packing: the symbol-table rule (at most 64 distinct byte values,
// sorted; 2-bit codes up to four values, 6-bit codes up to 64), both packed
// layouts, and a pack/unpack round trip at every partial trailing group.
#include "kernels/packed_text.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace acgpu::kernels {
namespace {

/// The table symbol_table should return for a text of exactly these values,
/// given in ascending order.
SymbolTable table_of(const std::string& values) {
  SymbolTable t;
  for (const char c : values) t.values[t.count++] = static_cast<std::uint8_t>(c);
  for (std::uint32_t i = t.count; i < kMaxSymbols; ++i) t.values[i] = t.values[t.count - 1];
  return t;
}

/// `count` distinct byte values spread over 0x00..0xff, 0x00 and 0xff
/// included when count > 1.
std::string alphabet(std::uint32_t count) {
  std::string a;
  for (std::uint32_t i = 0; i < count; ++i)
    a += static_cast<char>(count == 1 ? 0x41 : i * 255 / (count - 1));
  return a;
}

/// Packs `text` and expands every packed byte back, as the kernel's 2-bit
/// staging does; the result is `text` followed by zeros up to a whole word.
std::string round_trip(const std::string& text) {
  const std::optional<SymbolTable> table = symbol_table(text);
  EXPECT_TRUE(table.has_value()) << text;
  if (!table) return {};
  EXPECT_EQ(table->bits(), 2u);
  std::vector<std::uint8_t> packed(packed_size(text.size(), 2));
  pack_text(text, *table, packed.data());
  std::string out;
  for (std::uint64_t q = 0; q < packed.size(); ++q) {
    const std::uint32_t word = unpack_word(packed[q], *table, q * 4, text.size());
    for (int k = 0; k < 4; ++k) out += static_cast<char>(word >> (8 * k));
  }
  return out;
}

/// The 6-bit round trip: each 24-bit group's codes read back through the
/// table, with the kernel's zero padding past the packed bytes and zeros
/// past the text's end.
std::string round_trip_six(const std::string& text) {
  const std::optional<SymbolTable> table = symbol_table(text);
  EXPECT_TRUE(table.has_value()) << text.size();
  if (!table) return {};
  EXPECT_EQ(table->bits(), 6u);
  std::vector<std::uint8_t> packed(packed_size(text.size(), 6) + 8, 0);
  pack_text(text, *table, packed.data());
  std::string out;
  for (std::uint64_t q = 0; 4 * q < text.size(); ++q) {
    const std::uint32_t group =
        packed[3 * q] | packed[3 * q + 1] << 8 | packed[3 * q + 2] << 16;
    for (std::uint64_t k = 0; k < 4; ++k)
      out += 4 * q + k < text.size() ? static_cast<char>(table->values[group >> (6 * k) & 63])
                                     : '\0';
  }
  return out;
}

std::string padded(std::string text) {
  text.resize((text.size() + 3) / 4 * 4, '\0');
  return text;
}

TEST(PackedText, OneToFourSymbolsIncludingZeroGetASortedTable) {
  const std::string zero(1, '\0');
  EXPECT_EQ(symbol_table("GGGG"), table_of("G"));
  EXPECT_EQ(symbol_table("TATT"), table_of("AT"));
  EXPECT_EQ(symbol_table(zero + "C" + zero + "\xff"), table_of(zero + "C\xff"));
  EXPECT_EQ(symbol_table("GA" + zero + "AG" + zero + "T"), table_of(zero + "AGT"));
  EXPECT_EQ(symbol_table("TGCAACGT"), table_of("ACGT"));
  EXPECT_EQ(symbol_table("TGCAACGT")->bits(), 2u);
  EXPECT_EQ(symbol_table(""), std::nullopt);
}

TEST(PackedText, SixtyFifthDistinctByteAtTheLastPositionShipsBytes) {
  // A fifth value moves the text to 6-bit codes; a 65th ships it as bytes,
  // even past the first 4 KB block of the scan.
  EXPECT_EQ(symbol_table("ACGTACGTACGTN"), table_of("ACGNT"));
  EXPECT_EQ(symbol_table("ACGTACGTACGTN")->bits(), 6u);
  const std::string sixty_four = std::string(5000, alphabet(64)[1]) + alphabet(64);
  EXPECT_EQ(symbol_table(sixty_four)->count, 64u);
  EXPECT_EQ(symbol_table(sixty_four + "\x01"), std::nullopt);
  EXPECT_EQ(symbol_table(alphabet(256)), std::nullopt);
}

TEST(PackedText, PackedBytesHoldTheCodesAsTwoBitPlanes) {
  // A=0 C=1 G=2 T=3. "ACGT": low bits 0,1,0,1 in bits 0-3 and high bits
  // 0,0,1,1 in bits 4-7 -> 0xca. "TTA" -> 0x33, its missing fourth code 0.
  std::vector<std::uint8_t> packed(2);
  pack_text("ACGTTTA", table_of("ACGT"), packed.data());
  EXPECT_EQ(packed, (std::vector<std::uint8_t>{0xca, 0x33}));
  // A repeated table entry codes as its first index.
  pack_text("AC", table_of("AC"), packed.data());
  EXPECT_EQ(packed[0], 0x02);
}

TEST(PackedText, SixBitGroupsHoldFourCodesInThreeBytes) {
  // Codes a=0 .. e=4. "abcde": the group of "abcd" is 0 | 1 << 6 | 2 << 12 |
  // 3 << 18 = 0x0c2040, little-endian; "e" alone is code 4 in the low 6
  // bits of one more byte.
  std::vector<std::uint8_t> packed(packed_size(5, 6));
  ASSERT_EQ(packed.size(), 4u);
  pack_text("abcde", table_of("abcde"), packed.data());
  EXPECT_EQ(packed, (std::vector<std::uint8_t>{0x40, 0x20, 0x0c, 0x04}));
}

TEST(PackedText, UnpackExpandsEveryPackedByteUnderEveryTableShape) {
  // The word-wide expansion against a per-symbol table lookup, for all 256
  // packed bytes: distinct entries, repeated entries, and 0x00/0xff.
  const std::string zero(1, '\0');
  const SymbolTable tables[] = {table_of("ACGT"), table_of(zero + "\x01\xfe\xff"),
                                table_of(zero), table_of("\x07\x80"),
                                table_of("\x13\x37\xc4")};
  for (const SymbolTable& table : tables)
    for (unsigned b = 0; b < 256; ++b) {
      std::uint32_t want = 0;
      for (unsigned k = 0; k < 4; ++k) {
        const unsigned code = ((b >> k) & 1u) | ((b >> (4 + k)) & 1u) << 1;
        want |= std::uint32_t{table.values[code]} << (8 * k);
      }
      ASSERT_EQ(unpack_word(static_cast<std::uint8_t>(b), table, 0, 4), want)
          << "packed byte " << b;
    }
}

TEST(PackedText, RoundTripsEveryPartialTrailingByte) {
  const std::string zero(1, '\0');
  for (const std::string& alphabet : {std::string("A"), zero + "T", "ACG" + zero,
                                     std::string("ACGT"), "\xff" + zero + "AC"}) {
    for (std::size_t len = 1; len <= 9; ++len) {
      std::string text;
      for (std::size_t i = 0; i < len; ++i) text += alphabet[(i * 3 + len) % alphabet.size()];
      EXPECT_EQ(round_trip(text), padded(text)) << "length " << len;
    }
  }
}

TEST(PackedText, SixBitRoundTripsAlphabetsOf5To64AtEveryLengthModFour) {
  for (const std::uint32_t count : {5u, 33u, 64u}) {
    const std::string a = alphabet(count);
    for (std::size_t len = count; len < count + 8; ++len) {
      std::string text;
      for (std::size_t i = 0; i < len; ++i) text += a[(i * 7 + len) % a.size()];
      ASSERT_EQ(symbol_table(text)->count, count);
      EXPECT_EQ(round_trip_six(text), padded(text))
          << count << " values, length " << len << " (" << len % 4 << " mod 4)";
    }
  }
  EXPECT_EQ(symbol_table(alphabet(65)), std::nullopt);
}

TEST(PackedText, SymbolsPastTheTextLengthReadZero) {
  const SymbolTable table = table_of("ACGT");
  EXPECT_EQ(unpack_word(0xca, table, 0, 4), 0x54474341u);  // "ACGT"
  EXPECT_EQ(unpack_word(0xca, table, 0, 3), 0x00474341u);
  EXPECT_EQ(unpack_word(0xca, table, 8, 9), 0x00000041u);
  EXPECT_EQ(unpack_word(0xca, table, 8, 8), 0u);
}

}  // namespace
}  // namespace acgpu::kernels
