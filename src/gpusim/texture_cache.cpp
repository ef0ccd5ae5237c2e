#include "gpusim/texture_cache.h"

#include <bit>

#include "util/error.h"

namespace acgpu::gpusim {

TextureCache::TextureCache(std::uint32_t bytes, std::uint32_t line_bytes,
                           std::uint32_t assoc)
    : line_bytes_(line_bytes),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      assoc_(assoc) {
  ACGPU_CHECK(std::has_single_bit(line_bytes),
              "texture cache line size must be a power of two");
  ACGPU_CHECK(assoc > 0, "texture cache associativity must be positive");
  ACGPU_CHECK(bytes >= line_bytes * assoc,
              "texture cache of " << bytes << "B cannot hold one " << assoc << "-way set");
  const std::uint32_t sets = bytes / (line_bytes * assoc);
  ACGPU_CHECK(std::has_single_bit(sets),
              "texture cache set count must be a power of two, got " << sets);
  set_mask_ = sets - 1;
  ways_.assign(static_cast<std::size_t>(sets) * assoc_, Way{});
}

bool TextureCache::access(DevAddr addr) {
  const DevAddr line = addr >> line_shift_;
  Way* set = ways_.data() + set_index(line) * assoc_;
  ++tick_;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].tag == line) {
      set[w].last_use = tick_;
      ++hits_;
      return true;
    }
  }
  // Miss: fill an invalid way if one exists, else evict the LRU way.
  Way* victim = &set[0];
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].tag == kInvalid) {
      victim = &set[w];
      break;
    }
    if (set[w].last_use < victim->last_use) victim = &set[w];
  }
  victim->tag = line;
  victim->last_use = tick_;
  ++misses_;
  return false;
}

bool TextureCache::contains(DevAddr addr) const {
  const DevAddr line = addr >> line_shift_;
  const Way* set = ways_.data() + set_index(line) * assoc_;
  for (std::uint32_t w = 0; w < assoc_; ++w)
    if (set[w].tag == line) return true;
  return false;
}

void TextureCache::clear() {
  for (auto& w : ways_) w = Way{};
  tick_ = hits_ = misses_ = 0;
}

}  // namespace acgpu::gpusim
