#include "gpusim/device_memory.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "util/error.h"

namespace acgpu::gpusim {
namespace {

/// Defeats constant folding: GCC 12 turns literal out-of-bounds addresses
/// into -Warray-bounds warnings even though the bounds check throws before
/// any access happens.
DevAddr opaque(DevAddr v) {
  volatile DevAddr o = v;
  return o;
}

TEST(DeviceMemory, AllocAligns) {
  DeviceMemory mem(4096);
  const DevAddr a = mem.alloc(10);
  const DevAddr b = mem.alloc(10);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
}

TEST(DeviceMemory, AllocCustomAlignment) {
  DeviceMemory mem(4096);
  mem.alloc(3, 1);
  const DevAddr b = mem.alloc(8, 64);
  EXPECT_EQ(b % 64, 0u);
}

TEST(DeviceMemory, AllocRejectsNonPowerOfTwoAlign) {
  DeviceMemory mem(1024);
  EXPECT_THROW(mem.alloc(8, 3), Error);
  EXPECT_THROW(mem.alloc(8, 0), Error);
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  DeviceMemory mem(1024);
  mem.alloc(512);
  EXPECT_THROW(mem.alloc(1024), Error);
}

TEST(DeviceMemory, LoadStoreRoundTrip) {
  DeviceMemory mem(1024);
  const DevAddr a = mem.alloc(64);
  mem.store_u32(a, 0xdeadbeef);
  EXPECT_EQ(mem.load_u32(a), 0xdeadbeefu);
  mem.store_u8(a + 4, 0x7f);
  EXPECT_EQ(mem.load_u8(a + 4), 0x7f);
  mem.store_i32(a + 8, -12345);
  EXPECT_EQ(mem.load_i32(a + 8), -12345);
}

TEST(DeviceMemory, LittleEndianLayout) {
  DeviceMemory mem(1024);
  const DevAddr a = mem.alloc(8);
  mem.store_u32(a, 0x04030201);
  EXPECT_EQ(mem.load_u8(a + 0), 1);
  EXPECT_EQ(mem.load_u8(a + 1), 2);
  EXPECT_EQ(mem.load_u8(a + 2), 3);
  EXPECT_EQ(mem.load_u8(a + 3), 4);
}

TEST(DeviceMemory, CopyInOut) {
  DeviceMemory mem(1024);
  const DevAddr a = mem.alloc(16);
  const char src[] = "hello, device!!";
  mem.copy_in(a, src, sizeof src);
  char dst[sizeof src] = {};
  mem.copy_out(dst, a, sizeof src);
  EXPECT_STREQ(dst, src);
}

TEST(DeviceMemory, FillSetsBytes) {
  DeviceMemory mem(1024);
  const DevAddr a = mem.alloc(8);
  mem.fill(a, 0xab, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mem.load_u8(a + i), 0xab);
}

TEST(DeviceMemory, BoundsChecked) {
  DeviceMemory mem(64);
  EXPECT_THROW(mem.load_u32(opaque(62)), Error);
  EXPECT_THROW(mem.store_u8(opaque(64), 1), Error);
  EXPECT_THROW(mem.load_u8(opaque(100)), Error);
}

TEST(DeviceMemory, WordAccessNearTheUpperBoundary) {
  // A 4-byte access fits up to capacity-4 and must fail for every start in
  // (capacity-4, capacity] — including capacity itself, where a naive
  // `a < capacity` check would still pass.
  DeviceMemory mem(64);
  EXPECT_NO_THROW(mem.store_u32(60, 0x01020304));
  EXPECT_EQ(mem.load_u32(60), 0x01020304u);
  for (const DevAddr a : {DevAddr{61}, DevAddr{62}, DevAddr{63}, DevAddr{64}}) {
    EXPECT_THROW(mem.load_u32(opaque(a)), Error) << "addr " << a;
    EXPECT_THROW(mem.store_u32(opaque(a), 1), Error) << "addr " << a;
  }
  EXPECT_NO_THROW(mem.load_u8(63));
  EXPECT_THROW(mem.load_u8(opaque(64)), Error);
}

TEST(DeviceMemory, BoundsDiagnosticNamesTheRangeAndCapacity) {
  DeviceMemory mem(64);
  try {
    mem.load_u32(opaque(63));
    FAIL() << "expected an out-of-bounds error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[63, 67)"), std::string::npos) << what;
    EXPECT_NE(what.find("capacity 64"), std::string::npos) << what;
  }
}

TEST(DeviceMemory, RawViewIsBoundsCheckedToo) {
  DeviceMemory mem(64);
  EXPECT_NO_THROW(mem.raw(0, 64));
  EXPECT_THROW(mem.raw(opaque(1), 64), Error);
  EXPECT_THROW(mem.raw(opaque(64), 1), Error);
}

TEST(DeviceMemory, MarkReleaseReusesSpace) {
  DeviceMemory mem(1024);
  mem.alloc(128);
  const std::size_t m = mem.mark();
  const DevAddr a = mem.alloc(256);
  mem.release(m);
  const DevAddr b = mem.alloc(256);
  EXPECT_EQ(a, b);
}

TEST(DeviceMemory, ReleaseAboveMarkThrows) {
  DeviceMemory mem(1024);
  const std::size_t m = mem.mark();
  EXPECT_THROW(mem.release(m + 1), Error);
}

TEST(DeviceMemory, ZeroCapacityThrows) {
  EXPECT_THROW(DeviceMemory(0), Error);
}

TEST(DeviceMemory, FreshArenaReadsZero) {
  // The default simulated device: its capacity is reserved, not committed,
  // yet every byte reads zero before the first write.
  constexpr std::size_t kCapacity = 256u << 20;
  DeviceMemory mem(kCapacity);
  EXPECT_EQ(mem.load_u8(0), 0);
  EXPECT_EQ(mem.load_u8(kCapacity / 2), 0);
  EXPECT_EQ(mem.load_u8(kCapacity - 1), 0);
}

TEST(DeviceMemory, MovedArenaKeepsItsContents) {
  DeviceMemory a(1024);
  const DevAddr p = a.alloc(16);
  a.store_u32(p, 0xfeedf00d);
  DeviceMemory b(std::move(a));
  EXPECT_EQ(b.capacity(), 1024u);
  EXPECT_EQ(b.allocated(), 16u);
  EXPECT_EQ(b.load_u32(p), 0xfeedf00du);

  DeviceMemory c(64);
  c = std::move(b);
  EXPECT_EQ(c.capacity(), 1024u);
  EXPECT_EQ(c.load_u32(p), 0xfeedf00du);
  EXPECT_EQ(c.load_u8(1023), 0);
}

TEST(DeviceMemory, AvailableCountsFromTheNextAlignedAddress) {
  DeviceMemory mem(1024);
  EXPECT_EQ(mem.available(), 1024u);
  mem.alloc(10);
  EXPECT_EQ(mem.available(), 768u);  // the next 256-aligned base is 256
  mem.alloc(768);
  EXPECT_EQ(mem.available(), 0u);
  EXPECT_EQ(mem.allocated(), 1024u);
}

}  // namespace
}  // namespace acgpu::gpusim
