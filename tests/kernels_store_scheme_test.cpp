#include "kernels/store_scheme.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gpusim/shared_memory.h"
#include "util/error.h"

namespace acgpu::kernels {
namespace {

TEST(StoreScheme, NaiveIsRowMajor) {
  EXPECT_EQ(map_word(StoreScheme::kCoalescedNaive, 0, 0, 16), 0u);
  EXPECT_EQ(map_word(StoreScheme::kCoalescedNaive, 0, 5, 16), 5u);
  EXPECT_EQ(map_word(StoreScheme::kCoalescedNaive, 2, 3, 16), 35u);
  EXPECT_EQ(map_word(StoreScheme::kSequential, 2, 3, 16), 35u);
}

TEST(StoreScheme, DiagonalRotatesWithinRegion) {
  EXPECT_EQ(map_word(StoreScheme::kDiagonal, 0, 5, 16), 5u);
  EXPECT_EQ(map_word(StoreScheme::kDiagonal, 1, 5, 16), 16u + 6);
  EXPECT_EQ(map_word(StoreScheme::kDiagonal, 3, 15, 16), 3u * 16 + (15 + 3) % 16);
}

TEST(StoreScheme, EverySchemeIsABijection) {
  // Each (owner, word) must map to a distinct physical word within the
  // owner's own region — no two logical words may collide.
  const std::uint32_t chunk_words = 16, owners = 33;
  for (auto scheme : {StoreScheme::kSequential, StoreScheme::kCoalescedNaive,
                      StoreScheme::kDiagonal}) {
    std::set<std::uint32_t> seen;
    for (std::uint32_t o = 0; o < owners; ++o)
      for (std::uint32_t w = 0; w < chunk_words; ++w) {
        const std::uint32_t phys = map_word(scheme, o, w, chunk_words);
        EXPECT_TRUE(seen.insert(phys).second)
            << to_string(scheme) << " collides at owner " << o << " word " << w;
        EXPECT_LT(phys, owners * chunk_words);
      }
  }
}

TEST(StoreScheme, MapByteConsistentWithMapWord) {
  for (auto scheme : {StoreScheme::kCoalescedNaive, StoreScheme::kDiagonal}) {
    for (std::uint32_t logical = 0; logical < 512; ++logical) {
      const std::uint32_t byte_addr = map_byte(scheme, logical, 64);
      const std::uint32_t word =
          map_word(scheme, logical / 64, (logical % 64) / 4, 16);
      EXPECT_EQ(byte_addr, word * 4 + logical % 4);
    }
  }
}

// The paper's whole point (Fig 11/12): during the matching phase, the 16
// threads of a half-warp read byte i of their own chunks; with the naive
// layout all 16 land on ONE bank, with the diagonal layout they cover 16.
TEST(StoreScheme, MatchPhaseConflictDegrees) {
  const std::uint32_t chunk_bytes = 64;
  for (std::uint32_t i = 0; i < chunk_bytes; ++i) {
    std::vector<std::uint32_t> naive_addrs, diag_addrs;
    for (std::uint32_t thread = 0; thread < 16; ++thread) {
      const std::uint32_t logical = thread * chunk_bytes + i;
      naive_addrs.push_back(map_byte(StoreScheme::kCoalescedNaive, logical, chunk_bytes));
      diag_addrs.push_back(map_byte(StoreScheme::kDiagonal, logical, chunk_bytes));
    }
    EXPECT_EQ(gpusim::bank_conflicts(naive_addrs, 16, 16).max_degree, 16u)
        << "byte " << i;
    EXPECT_EQ(gpusim::bank_conflicts(diag_addrs, 16, 16).max_degree, 1u)
        << "byte " << i;
  }
}

// The generalised rotation keeps the matching reads conflict-free at every
// chunk width, not only at multiples of 16 words: for any 16 consecutive
// owners, each word index lands on 16 distinct banks.
TEST(StoreScheme, DiagonalMatchReadsConflictFreeAtEveryChunkWidth) {
  for (std::uint32_t chunk_words = 1; chunk_words <= 32; ++chunk_words)
    for (std::uint32_t first = 0; first < 48; ++first)
      for (std::uint32_t word = 0; word < chunk_words; ++word) {
        std::vector<std::uint32_t> addrs;
        for (std::uint32_t owner = first; owner < first + 16; ++owner)
          addrs.push_back(map_word(StoreScheme::kDiagonal, owner, word, chunk_words) * 4);
        EXPECT_EQ(gpusim::bank_conflicts(addrs, 16, 16).max_degree, 1u)
            << chunk_words << "-word chunks, owners " << first << "..+15, word "
            << word;
      }
}

// Staging phase: 16 cooperating threads store 16 consecutive logical words.
// Both coalesced layouts must be conflict-free within one owner's region.
TEST(StoreScheme, StagingStoresConflictFreeWithinChunk) {
  const std::uint32_t chunk_words = 32;  // 128B chunks: one owner per step
  for (auto scheme : {StoreScheme::kCoalescedNaive, StoreScheme::kDiagonal}) {
    std::vector<std::uint32_t> addrs;
    for (std::uint32_t t = 0; t < 16; ++t)
      addrs.push_back(map_word(scheme, 0, t, chunk_words) * 4);
    EXPECT_EQ(gpusim::bank_conflicts(addrs, 16, 16).max_degree, 1u)
        << to_string(scheme);
  }
}

TEST(StoreScheme, DiagonalDegreeBoundedAtChunkBoundaries) {
  // When a half-warp's 16 consecutive words straddle owner regions the
  // diagonal rotation can produce at most a 2-way conflict.
  const std::uint32_t chunk_words = 16;
  for (std::uint32_t start = 0; start < 64; ++start) {
    std::vector<std::uint32_t> addrs;
    for (std::uint32_t t = 0; t < 16; ++t) {
      const std::uint32_t wi = start + t;
      addrs.push_back(map_word(StoreScheme::kDiagonal, wi / chunk_words,
                               wi % chunk_words, chunk_words) * 4);
    }
    EXPECT_LE(gpusim::bank_conflicts(addrs, 16, 16).max_degree, 2u)
        << "start " << start;
  }
}

TEST(StoreScheme, MapByteValidatesChunkAlignment) {
  EXPECT_THROW(map_byte(StoreScheme::kDiagonal, 0, 63), acgpu::Error);
}

TEST(StoreScheme, MapWordValidatesRange) {
  EXPECT_THROW(map_word(StoreScheme::kDiagonal, 0, 16, 16), acgpu::Error);
  EXPECT_THROW(map_word(StoreScheme::kDiagonal, 0, 0, 0), acgpu::Error);
}

TEST(StoreScheme, ToStringNames) {
  EXPECT_STREQ(to_string(StoreScheme::kSequential), "sequential");
  EXPECT_STREQ(to_string(StoreScheme::kCoalescedNaive), "coalesced-naive");
  EXPECT_STREQ(to_string(StoreScheme::kDiagonal), "diagonal");
}

}  // namespace
}  // namespace acgpu::kernels
