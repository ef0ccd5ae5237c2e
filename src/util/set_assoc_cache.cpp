#include "util/set_assoc_cache.h"

#include <algorithm>
#include <bit>

#include "util/error.h"

namespace acgpu::util {

std::uint64_t SetAssocCache::set_count(std::uint64_t bytes, std::uint32_t line_bytes,
                                       std::uint32_t assoc) {
  ACGPU_CHECK(std::has_single_bit(line_bytes),
              "cache line size must be a power of two, got " << line_bytes);
  ACGPU_CHECK(assoc > 0, "cache associativity must be positive");
  ACGPU_CHECK(bytes >= static_cast<std::uint64_t>(line_bytes) * assoc,
              "cache of " << bytes << "B cannot hold one " << assoc << "-way set");
  const std::uint64_t sets = bytes / (static_cast<std::uint64_t>(line_bytes) * assoc);
  ACGPU_CHECK(std::has_single_bit(sets),
              "cache set count must be a power of two, got " << sets);
  return sets;
}

SetAssocCache::SetAssocCache(std::uint64_t bytes, std::uint32_t line_bytes,
                             std::uint32_t assoc)
    : line_bytes_(line_bytes),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      assoc_(assoc),
      set_mask_(set_count(bytes, line_bytes, assoc) - 1) {
  tags_.assign((set_mask_ + 1) * assoc_, kEmpty);
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t* set = tags_.data() + (line & set_mask_) * assoc_;
  return std::find(set, set + assoc_, line) != set + assoc_;
}

void SetAssocCache::clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  hits_ = misses_ = 0;
}

}  // namespace acgpu::util
