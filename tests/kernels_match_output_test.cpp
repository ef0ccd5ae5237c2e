#include "kernels/match_output.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace acgpu::kernels {
namespace {

TEST(MatchBuffer, EmptyCollect) {
  gpusim::DeviceMemory mem(1 << 16);
  MatchBuffer buf(mem, 8, 4, 16, 8);
  const auto c = buf.collect_records(mem);
  EXPECT_TRUE(c.records.empty());
  EXPECT_EQ(c.total_reported, 0u);
  EXPECT_FALSE(c.overflowed);
}

TEST(MatchBuffer, CollectReadsRecords) {
  gpusim::DeviceMemory mem(1 << 16);
  const std::uint32_t S = 40;
  MatchBuffer buf(mem, 4, 4, S, 8);
  // Thread 2 reports two matches: id 7 at scan offset 39 (the last byte a
  // thread can scan), then id 3 at offset 5.
  mem.store_u16(buf.count_addr(2), 2);
  mem.store_u32(buf.record_addr(2, 0), 7 * S + 39);
  mem.store_u32(buf.record_addr(2, 1), 3 * S + 5);
  const auto c = buf.collect_records(mem);
  ASSERT_EQ(c.records.size(), 2u);
  // In (thread, slot) order, decoded as (offset, id).
  EXPECT_EQ(c.records[0].thread, 2u);
  EXPECT_EQ(c.records[0].offset, 39u);
  EXPECT_EQ(c.records[0].id, 7);
  EXPECT_EQ(c.records[1].thread, 2u);
  EXPECT_EQ(c.records[1].offset, 5u);
  EXPECT_EQ(c.records[1].id, 3);
  EXPECT_EQ(c.total_reported, 2u);
  EXPECT_FALSE(c.overflowed);
}

TEST(MatchBuffer, OverflowDetected) {
  gpusim::DeviceMemory mem(1 << 16);
  MatchBuffer buf(mem, 3, 2, 16, 8);
  mem.store_u16(buf.count_addr(0), 2);  // exactly at capacity: complete
  const auto at_capacity = buf.collect_records(mem);
  EXPECT_FALSE(at_capacity.overflowed);
  EXPECT_EQ(at_capacity.records.size(), 2u);

  mem.store_u16(buf.count_addr(1), 3);  // capacity + 1: one record dropped
  mem.store_u32(buf.record_addr(1, 0), 1 * 16 + 1);
  mem.store_u32(buf.record_addr(1, 1), 1 * 16 + 2);
  // A count word saturated at the u16 limit still reads as overflow.
  mem.store_u16(buf.count_addr(2), MatchBuffer::kMaxCount);
  const auto c = buf.collect_records(mem);
  EXPECT_TRUE(c.overflowed);
  EXPECT_EQ(c.total_reported, 2u + 3u + MatchBuffer::kMaxCount);
  EXPECT_EQ(c.records.size(), 6u);  // only the stored records, 2 per thread
}

TEST(MatchBuffer, RecordAddressLayout) {
  gpusim::DeviceMemory mem(1 << 16);
  MatchBuffer buf(mem, 64, 3, 16, 8);
  EXPECT_EQ(buf.count_addr(1) - buf.count_addr(0), 2u);
  // Slot-major: neighbouring threads' k-th records are neighbouring words,
  // and one thread's next slot is a whole slot row (threads words) further.
  EXPECT_EQ(buf.record_addr(1, 0) - buf.record_addr(0, 0), 4u);
  EXPECT_EQ(buf.record_addr(0, 1) - buf.record_addr(0, 0), 64u * 4);
  EXPECT_EQ(buf.record_addr(5, 2) - buf.records_base(), (2u * 64 + 5) * 4);
  // A warp's lanes storing slot k touch one 128 B segment.
  EXPECT_EQ(buf.record_addr(31, 2) / 128, buf.record_addr(0, 2) / 128);
}

TEST(MatchBuffer, CountsZeroInitialised) {
  gpusim::DeviceMemory mem(1 << 16);
  // Dirty the memory first to prove the constructor clears counts.
  const auto probe = mem.alloc(64);
  mem.fill(probe, 0xff, 64);
  MatchBuffer buf(mem, 16, 2, 16, 8);
  for (std::uint64_t t = 0; t < 16; ++t) EXPECT_EQ(mem.load_u16(buf.count_addr(t)), 0u);
}

TEST(MatchBuffer, ValidatesArguments) {
  gpusim::DeviceMemory mem(1 << 20);
  EXPECT_THROW(MatchBuffer(mem, 0, 4, 16, 8), Error);
  EXPECT_THROW(MatchBuffer(mem, 4, 0, 16, 8), Error);
  EXPECT_THROW(MatchBuffer(mem, 4, 4, 0, 8), Error);
  // A capacity must stay below the count word's saturation value, or a
  // saturated count could not be told from a complete one.
  EXPECT_THROW(MatchBuffer(mem, 4, MatchBuffer::kMaxCount, 16, 8), Error);
  EXPECT_NO_THROW(MatchBuffer(mem, 4, MatchBuffer::kMaxCount - 1, 16, 8));
  // Every record word oid * S + offset must fit 32 bits.
  EXPECT_THROW(MatchBuffer(mem, 4, 4, 1u << 16, (1u << 16) + 1), Error);
  EXPECT_NO_THROW(MatchBuffer(mem, 4, 4, 1u << 16, 1u << 16));
}

TEST(MatchBuffer, AllocatesTheSlotsAThreadCanFill) {
  // 128 threads: the u16 count array is 256 B, so the records start right
  // after it and the allocation is exactly threads x (2 + 4 x slots).
  for (const auto& [capacity, scan_bound] :
       {std::pair<std::uint32_t, std::uint32_t>{8, 40}, {64, 40}, {40, 40}}) {
    gpusim::DeviceMemory mem(1 << 20);
    const std::size_t before = mem.allocated();
    const MatchBuffer buf(mem, 128, capacity, scan_bound, 8);
    const std::uint32_t slots = std::min(capacity, scan_bound);
    EXPECT_EQ(buf.slots(), slots);
    EXPECT_EQ(mem.allocated() - before, 128u * (2 + 4 * slots));
  }
}

}  // namespace
}  // namespace acgpu::kernels
