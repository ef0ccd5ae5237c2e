#include "gpusim/texture.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/set_assoc_cache.h"

namespace acgpu::gpusim {
namespace {

TEST(Texture2D, FetchReadsDeviceMemory) {
  DeviceMemory mem(4096);
  const DevAddr base = mem.alloc(4 * 4 * 4);
  // 4x4 int32 matrix, element (x,y) = y*10 + x.
  for (std::uint32_t y = 0; y < 4; ++y)
    for (std::uint32_t x = 0; x < 4; ++x)
      mem.store_i32(base + (y * 4 + x) * 4, static_cast<std::int32_t>(y * 10 + x));
  Texture2D tex(&mem, base, 4, 4, 4);
  EXPECT_EQ(tex.fetch(0, 0), 0);
  EXPECT_EQ(tex.fetch(3, 0), 3);
  EXPECT_EQ(tex.fetch(0, 2), 20);
  EXPECT_EQ(tex.fetch(3, 3), 33);
}

TEST(Texture2D, PitchSkipsPadding) {
  DeviceMemory mem(4096);
  const DevAddr base = mem.alloc(2 * 8 * 4);  // 2 rows, pitch 8, width 3
  mem.store_i32(base + 0, 1);
  mem.store_i32(base + 8 * 4, 2);  // row 1, col 0
  Texture2D tex(&mem, base, 3, 2, 8);
  EXPECT_EQ(tex.fetch(0, 0), 1);
  EXPECT_EQ(tex.fetch(0, 1), 2);
  EXPECT_EQ(tex.addr_of(0, 1) - tex.addr_of(0, 0), 32u);
}

TEST(Texture2D, OutOfBoundsFetchThrows) {
  DeviceMemory mem(4096);
  const DevAddr base = mem.alloc(64);
  Texture2D tex(&mem, base, 4, 4, 4);
  EXPECT_THROW(tex.fetch(4, 0), Error);
  EXPECT_THROW(tex.fetch(0, 4), Error);
}

TEST(Texture2D, ValidatesBindingGeometry) {
  DeviceMemory mem(256);
  const DevAddr base = mem.alloc(64);
  EXPECT_THROW(Texture2D(&mem, base, 8, 4, 4), Error);   // pitch < width
  EXPECT_THROW(Texture2D(&mem, base, 0, 4, 4), Error);   // empty
  EXPECT_THROW(Texture2D(&mem, base, 64, 64, 64), Error);  // exceeds memory
}

TEST(Texture2D, DefaultIsUnbound) {
  Texture2D tex;
  EXPECT_FALSE(tex.bound());
}

// The texture L1s and the texture L2 are util::SetAssocCache with 32 B lines.
TEST(TextureCache, HitAfterFill) {
  util::SetAssocCache cache(1024, 32, 4);
  EXPECT_FALSE(cache.access(100));
  EXPECT_TRUE(cache.access(100));
  EXPECT_TRUE(cache.access(96));   // same 32B line
  EXPECT_FALSE(cache.access(128)); // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(TextureCache, ContainsDoesNotFill) {
  util::SetAssocCache cache(1024, 32, 4);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.contains(0));
}

TEST(TextureCache, LruEvictionWithinSet) {
  // 4 sets of 2 ways, 32B lines: lines 0, 4, 8 all map to set 0.
  util::SetAssocCache cache(256, 32, 2);
  ASSERT_EQ(cache.sets(), 4u);
  cache.access(0 * 32);
  cache.access(4 * 32);
  cache.access(0 * 32);      // refresh line 0: line 4 is now LRU
  cache.access(8 * 32);      // evicts line 4
  EXPECT_TRUE(cache.contains(0 * 32));
  EXPECT_FALSE(cache.contains(4 * 32));
  EXPECT_TRUE(cache.contains(8 * 32));
}

TEST(TextureCache, CapacityWorkingSetAllHits) {
  util::SetAssocCache cache(1024, 32, 4);  // 32 lines
  for (int rep = 0; rep < 3; ++rep)
    for (DevAddr line = 0; line < 32; ++line) cache.access(line * 32);
  EXPECT_EQ(cache.misses(), 32u);
  EXPECT_EQ(cache.hits(), 64u);
}

TEST(TextureCache, ThrashingWorkingSetMisses) {
  util::SetAssocCache cache(256, 32, 2);  // 8 lines capacity
  // Cycle 24 lines: with LRU every access misses.
  for (int rep = 0; rep < 2; ++rep)
    for (DevAddr line = 0; line < 24; ++line) cache.access(line * 32);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TextureCache, ClearResets) {
  util::SetAssocCache cache(256, 32, 2);
  cache.access(0);
  cache.clear();
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(TextureCache, ValidatesGeometry) {
  EXPECT_THROW(util::SetAssocCache(64, 33, 2), Error);   // non-power-of-two line
  EXPECT_THROW(util::SetAssocCache(64, 32, 0), Error);   // zero assoc
  EXPECT_THROW(util::SetAssocCache(32, 32, 2), Error);   // can't hold one set
  EXPECT_THROW(util::SetAssocCache(96, 32, 1), Error);   // 3 sets: not a mask
  EXPECT_EQ(util::SetAssocCache(128, 32, 1).sets(), 4u);
}

}  // namespace
}  // namespace acgpu::gpusim
