#include "gpusim/shared_memory.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.h"

namespace acgpu::gpusim {
namespace {

/// Defeats constant folding: GCC 12 turns literal out-of-bounds addresses
/// into -Warray-bounds warnings even though the bounds check throws before
/// any access happens.
std::uint32_t opaque(std::uint32_t v) {
  volatile std::uint32_t o = v;
  return o;
}

std::vector<std::uint32_t> addrs_from_words(std::initializer_list<std::uint32_t> words) {
  std::vector<std::uint32_t> out;
  for (auto w : words) out.push_back(w * 4);
  return out;
}

TEST(BankConflicts, ConflictFreeHalfWarp) {
  // 16 lanes on 16 successive words: one word per bank.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 16; ++l) addrs.push_back(l * 4);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.total_degree, 1u);
  EXPECT_EQ(c.max_degree, 1u);
}

TEST(BankConflicts, FullWarpTwoGroups) {
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 32; ++l) addrs.push_back(l * 4);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 2u);
  EXPECT_EQ(c.total_degree, 2u);  // each half-warp conflict-free
}

TEST(BankConflicts, SixteenWayConflict) {
  // The naive layout's disaster: 16 lanes, stride 16 words -> same bank.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 16; ++l) addrs.push_back(l * 16 * 4);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.total_degree, 16u);
  EXPECT_EQ(c.max_degree, 16u);
}

TEST(BankConflicts, BroadcastSameWordIsFree) {
  std::vector<std::uint32_t> addrs(16, 128);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.total_degree, 1u);
}

TEST(BankConflicts, SameWordDifferentBytesBroadcasts) {
  // Sub-word byte accesses into ONE 32-bit word broadcast too.
  std::vector<std::uint32_t> addrs = {100, 101, 102, 103};
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.total_degree, 1u);
}

TEST(BankConflicts, TwoWayConflict) {
  // Lanes 0..15 on words 0..15, except lane 15 reads word 16+0 -> bank 0
  // twice (words 0 and 16): degree 2.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 15; ++l) addrs.push_back(l * 4);
  addrs.push_back(16 * 4);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.max_degree, 2u);
  EXPECT_EQ(c.total_degree, 2u);
}

TEST(BankConflicts, StrideTwoIsTwoWay) {
  // Stride-2 words: banks 0,2,4,... each hit twice over 16 lanes.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 16; ++l) addrs.push_back(l * 2 * 4);
  EXPECT_EQ(bank_conflicts(addrs, 16, 16).max_degree, 2u);
}

TEST(BankConflicts, GroupsProcessedIndependently) {
  // First half-warp conflict-free, second half-warp 16-way.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 16; ++l) addrs.push_back(l * 4);
  for (std::uint32_t l = 0; l < 16; ++l) addrs.push_back(l * 16 * 4);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 2u);
  EXPECT_EQ(c.total_degree, 1u + 16u);
  EXPECT_EQ(c.max_degree, 16u);
}

TEST(BankConflicts, PartialGroup) {
  const auto c = bank_conflicts(addrs_from_words({0, 1, 2}), 16, 16);
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.total_degree, 1u);
}

TEST(BankConflicts, EmptyAccess) {
  std::vector<std::uint32_t> addrs;
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 0u);
  EXPECT_EQ(c.total_degree, 0u);
}

TEST(BankConflicts, EmptyLaneSetAfterMaskingIsFree) {
  // A fully-masked warp instruction reaches the model with zero addresses;
  // it must cost nothing and report no groups rather than divide by zero.
  const std::vector<std::uint32_t> addrs;
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 0u);
  EXPECT_EQ(c.total_degree, 0u);
  EXPECT_EQ(c.max_degree, 0u);
}

TEST(BankConflicts, GroupLargerThanLaneCount) {
  // Full-warp conflict groups (group = 32) over a 10-lane tail warp: one
  // partial group, degree decided by the 10 live lanes only.
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 10; ++l) addrs.push_back(l * 4);
  const auto c = bank_conflicts(addrs, 16, 32);
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.total_degree, 1u);
  EXPECT_EQ(c.max_degree, 1u);
}

TEST(BankConflicts, GroupLargerThanLaneCountStillSeesConflicts) {
  // Same partial group, but two lanes land distinct words on one bank.
  std::vector<std::uint32_t> addrs = addrs_from_words({0, 1, 2, 16});
  const auto c = bank_conflicts(addrs, 16, 32);
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.max_degree, 2u);
}

TEST(BankConflicts, BroadcastSameWordAcrossAllSixteenLanes) {
  // All 16 lanes of a half-warp on ONE word: the hardware broadcast makes
  // this a single-cycle access, degree 1, regardless of which bank holds it.
  for (const std::uint32_t word : {0u, 5u, 15u, 16u, 31u}) {
    const std::vector<std::uint32_t> addrs(16, word * 4);
    const auto c = bank_conflicts(addrs, 16, 16);
    EXPECT_EQ(c.groups, 1u) << "word " << word;
    EXPECT_EQ(c.total_degree, 1u) << "word " << word;
    EXPECT_EQ(c.max_degree, 1u) << "word " << word;
  }
}

TEST(BankConflicts, FullWarpBroadcastIsOneDegreePerGroup) {
  const std::vector<std::uint32_t> addrs(32, 64);
  const auto c = bank_conflicts(addrs, 16, 16);
  EXPECT_EQ(c.groups, 2u);
  EXPECT_EQ(c.total_degree, 2u);
  EXPECT_EQ(c.max_degree, 1u);
}

TEST(BankConflicts, MaskedLanesKeepTheirHalfWarp) {
  // Lanes 8-15 and 24-31 masked off; lanes 0-7 read words 0-7 and lanes
  // 16-23 words 16-23. Each half-warp touches 8 distinct banks, so the
  // access is conflict-free. Grouping the 16 live lanes as if they were
  // consecutive would put words 0 and 16 in one half-warp: degree 2.
  std::vector<std::uint32_t> addrs(32, 0);
  std::uint32_t active = 0;
  for (std::uint32_t l = 0; l < 32; ++l)
    if (l % 16 < 8) {
      addrs[l] = l * 4;
      active |= 1u << l;
    }
  const auto c = bank_conflicts(addrs, 16, 16, active);
  EXPECT_EQ(c.groups, 2u);
  EXPECT_EQ(c.total_degree, 2u);
  EXPECT_EQ(c.max_degree, 1u);
}

TEST(BankConflicts, GroupWithNoActiveLaneCostsNothing) {
  // Only the second half-warp is live: one group, not two.
  std::vector<std::uint32_t> addrs(32, 0);
  std::uint32_t active = 0;
  for (std::uint32_t l = 16; l < 32; ++l) {
    addrs[l] = l * 4;
    active |= 1u << l;
  }
  const auto c = bank_conflicts(addrs, 16, 16, active);
  EXPECT_EQ(c.groups, 1u);
  EXPECT_EQ(c.total_degree, 1u);
  EXPECT_EQ(bank_conflicts(addrs, 16, 16, 0).groups, 0u);
}

TEST(BankConflicts, ValidatesArguments) {
  std::vector<std::uint32_t> addrs = {0};
  EXPECT_THROW(bank_conflicts(addrs, 0, 16), Error);
  EXPECT_THROW(bank_conflicts(addrs, 16, 0), Error);
  EXPECT_THROW(bank_conflicts(addrs, 16, 64), Error);
  const std::vector<std::uint32_t> too_many(33, 0);
  EXPECT_THROW(bank_conflicts(too_many, 16, 16), Error);
}

TEST(SharedMemory, LoadStoreRoundTrip) {
  SharedMemory smem(1024);
  smem.store_u32(0, 0x11223344);
  EXPECT_EQ(smem.load_u32(0), 0x11223344u);
  EXPECT_EQ(smem.load_u8(0), 0x44);  // little-endian
  smem.store_u8(100, 0x5a);
  EXPECT_EQ(smem.load_u8(100), 0x5a);
}

TEST(SharedMemory, BoundsChecked) {
  SharedMemory smem(64);
  EXPECT_THROW(smem.load_u32(opaque(62)), Error);
  EXPECT_THROW(smem.store_u8(opaque(64), 1), Error);
}

TEST(SharedMemory, WordAccessNearTheUpperBoundary) {
  // A 4-byte access fits up to size-4 and must fail for every start in
  // (size-4, size] — the off-by-one family the staging kernels risk.
  SharedMemory smem(64);
  EXPECT_NO_THROW(smem.store_u32(60, 1));
  EXPECT_NO_THROW(smem.load_u32(60));
  for (const std::uint32_t a : {61u, 62u, 63u, 64u}) {
    EXPECT_THROW(smem.load_u32(opaque(a)), Error) << "addr " << a;
    EXPECT_THROW(smem.store_u32(opaque(a), 1), Error) << "addr " << a;
  }
  EXPECT_NO_THROW(smem.load_u8(63));
  EXPECT_THROW(smem.load_u8(opaque(64)), Error);
}

TEST(SharedMemory, BoundsDiagnosticNamesTheRangeAndSize) {
  SharedMemory smem(64);
  try {
    smem.load_u32(opaque(62));
    FAIL() << "expected an out-of-bounds error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[62, 66)"), std::string::npos) << what;
    EXPECT_NE(what.find("64"), std::string::npos) << what;
  }
}

TEST(SharedMemory, ClearZeroes) {
  SharedMemory smem(16);
  smem.store_u32(4, 123);
  smem.clear();
  EXPECT_EQ(smem.load_u32(4), 0u);
}

}  // namespace
}  // namespace acgpu::gpusim
