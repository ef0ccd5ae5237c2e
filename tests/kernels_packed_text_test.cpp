// 2-bit input packing: the symbol-table rule (at most four distinct byte
// values, sorted) and a pack/unpack round trip at every partial trailing
// byte.
#include "kernels/packed_text.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace acgpu::kernels {
namespace {

/// Packs `text` and expands every packed byte back, as the kernel's staging
/// does; the result is `text` followed by zeros up to a whole word.
std::string round_trip(const std::string& text) {
  const std::optional<SymbolTable> table = symbol_table(text);
  EXPECT_TRUE(table.has_value()) << text;
  if (!table) return {};
  std::vector<std::uint8_t> packed(packed_size(text.size()));
  pack_text(text, *table, packed.data());
  std::string out;
  for (std::uint64_t q = 0; q < packed.size(); ++q) {
    const std::uint32_t word = unpack_word(packed[q], *table, q * 4, text.size());
    for (int k = 0; k < 4; ++k) out += static_cast<char>(word >> (8 * k));
  }
  return out;
}

std::string padded(std::string text) {
  text.resize(packed_size(text.size()) * 4, '\0');
  return text;
}

TEST(PackedText, OneToFourSymbolsIncludingZeroGetASortedTable) {
  const std::string zero(1, '\0');
  EXPECT_EQ(symbol_table("GGGG"), (SymbolTable{'G', 'G', 'G', 'G'}));
  EXPECT_EQ(symbol_table("TATT"), (SymbolTable{'A', 'T', 'T', 'T'}));
  EXPECT_EQ(symbol_table(zero + "C" + zero + "\xff"),
            (SymbolTable{0x00, 'C', 0xff, 0xff}));
  EXPECT_EQ(symbol_table("GA" + zero + "AG" + zero + "T"),
            (SymbolTable{0x00, 'A', 'G', 'T'}));
  EXPECT_EQ(symbol_table("TGCAACGT"), (SymbolTable{'A', 'C', 'G', 'T'}));
  EXPECT_EQ(symbol_table(""), std::nullopt);
}

TEST(PackedText, FifthDistinctByteAtTheLastPositionShipsBytes) {
  EXPECT_EQ(symbol_table("ACGTACGTACGTN"), std::nullopt);
  EXPECT_EQ(symbol_table(std::string(4096, 'A') + "CGT" + std::string(1, '\0')),
            std::nullopt);
  EXPECT_TRUE(symbol_table(std::string(4096, 'A') + "CGT").has_value());
}

TEST(PackedText, PackedBytesHoldTheCodesAsTwoBitPlanes) {
  // A=0 C=1 G=2 T=3. "ACGT": low bits 0,1,0,1 in bits 0-3 and high bits
  // 0,0,1,1 in bits 4-7 -> 0xca. "TTA" -> 0x33, its missing fourth code 0.
  std::vector<std::uint8_t> packed(2);
  pack_text("ACGTTTA", SymbolTable{'A', 'C', 'G', 'T'}, packed.data());
  EXPECT_EQ(packed, (std::vector<std::uint8_t>{0xca, 0x33}));
  // A repeated table entry codes as its first index.
  pack_text("AC", SymbolTable{'A', 'C', 'C', 'C'}, packed.data());
  EXPECT_EQ(packed[0], 0x02);
}

TEST(PackedText, UnpackExpandsEveryPackedByteUnderEveryTableShape) {
  // The word-wide expansion against a per-symbol table lookup, for all 256
  // packed bytes: distinct entries, repeated entries, and 0x00/0xff.
  const SymbolTable tables[] = {{'A', 'C', 'G', 'T'},
                                {0x00, 0x01, 0xfe, 0xff},
                                {0x00, 0x00, 0x00, 0x00},
                                {0x07, 0x80, 0x80, 0x80},
                                {0x13, 0x37, 0xc4, 0xc4}};
  for (const SymbolTable& table : tables)
    for (unsigned b = 0; b < 256; ++b) {
      std::uint32_t want = 0;
      for (unsigned k = 0; k < 4; ++k) {
        const unsigned code = ((b >> k) & 1u) | ((b >> (4 + k)) & 1u) << 1;
        want |= std::uint32_t{table[code]} << (8 * k);
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

TEST(PackedText, SymbolsPastTheTextLengthReadZero) {
  const SymbolTable table{'A', 'C', 'G', 'T'};
  EXPECT_EQ(unpack_word(0xca, table, 0, 4), 0x54474341u);  // "ACGT"
  EXPECT_EQ(unpack_word(0xca, table, 0, 3), 0x00474341u);
  EXPECT_EQ(unpack_word(0xca, table, 8, 9), 0x00000041u);
  EXPECT_EQ(unpack_word(0xca, table, 8, 8), 0u);
}

}  // namespace
}  // namespace acgpu::kernels
