// Set-associative LRU cache model, indexed by byte address. cpumodel's
// Core2 L1 and L2 and gpusim's per-SM texture L1s and texture L2 are all
// this class at their own geometries.
//
// Each set keeps its tags most-recent-first. A hit moves its tag to the
// front; a miss shifts the set down one way, dropping the last tag, and puts
// the new line in front. The last way always holds the least recently used
// line, or is empty while the set fills, so this is exact LRU at one 8-byte
// tag a way.
#pragma once

#include <cstdint>
#include <vector>

namespace acgpu::util {

class SetAssocCache {
 public:
  /// `bytes` capacity, `line_bytes` per line, `assoc`-way sets, LRU. The
  /// line size and the set count must be powers of two: a probe indexes by
  /// shift and mask.
  SetAssocCache(std::uint64_t bytes, std::uint32_t line_bytes, std::uint32_t assoc);

  /// The set count of that geometry; throws acgpu::Error on one the
  /// constructor rejects.
  static std::uint64_t set_count(std::uint64_t bytes, std::uint32_t line_bytes,
                                 std::uint32_t assoc);

  /// Probes the line containing `addr`; fills it on miss. True on hit.
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> line_shift_;
    std::uint64_t* set = tags_.data() + (line & set_mask_) * assoc_;
    std::uint32_t w = 0;
    while (w < assoc_ && set[w] != line) ++w;
    const bool hit = w < assoc_;
    if (!hit) w = assoc_ - 1;  // the LRU way (or an empty one) leaves
    for (; w > 0; --w) set[w] = set[w - 1];
    set[0] = line;
    ++(hit ? hits_ : misses_);
    return hit;
  }

  /// Probe without filling or touching the recency order.
  bool contains(std::uint64_t addr) const;

  void clear();

  std::uint32_t line_bytes() const { return line_bytes_; }
  /// log2(line_bytes()): an address's line is addr >> line_shift().
  std::uint32_t line_shift() const { return line_shift_; }
  std::uint64_t sets() const { return set_mask_ + 1; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;
  std::uint32_t assoc_;
  std::uint64_t set_mask_;  ///< sets - 1
  std::vector<std::uint64_t> tags_;  ///< sets x assoc, each set most-recent-first
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace acgpu::util
