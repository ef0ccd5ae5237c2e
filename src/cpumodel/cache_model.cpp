#include "cpumodel/cache_model.h"

#include <bit>

#include "util/error.h"

namespace acgpu::cpumodel {

SetAssocCache::SetAssocCache(std::uint64_t bytes, std::uint32_t line_bytes,
                             std::uint32_t assoc)
    : line_bytes_(line_bytes),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      assoc_(assoc) {
  ACGPU_CHECK(std::has_single_bit(line_bytes),
              "cache line size must be a power of two, got " << line_bytes);
  ACGPU_CHECK(assoc > 0, "cache associativity must be positive");
  ACGPU_CHECK(bytes >= static_cast<std::uint64_t>(line_bytes) * assoc,
              "cache of " << bytes << "B cannot hold one " << assoc << "-way set");
  const std::uint64_t sets = bytes / (static_cast<std::uint64_t>(line_bytes) * assoc);
  ACGPU_CHECK(std::has_single_bit(sets),
              "cache set count must be a power of two, got " << sets);
  set_mask_ = sets - 1;
  ways_.assign(sets * assoc_, Way{});
}

bool SetAssocCache::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  Way* set = ways_.data() + (line & set_mask_) * assoc_;
  ++tick_;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].tag == line) {
      set[w].last_use = tick_;
      ++hits_;
      return true;
    }
  }
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

void SetAssocCache::clear() {
  for (auto& w : ways_) w = Way{};
  tick_ = hits_ = misses_ = 0;
}

}  // namespace acgpu::cpumodel
