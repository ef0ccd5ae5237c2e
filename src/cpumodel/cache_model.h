// Set-associative cache model used by the serial-CPU timing estimate.
//
// The paper's serial baseline ran on a 2.2 GHz Core2; its run time grows
// with the pattern count because the STT working set falls out of the CPU
// caches. This small LRU model reproduces that effect.
#pragma once

#include <cstdint>
#include <vector>

namespace acgpu::cpumodel {

class SetAssocCache {
 public:
  /// `bytes` capacity, `line_bytes` per line, `assoc`-way sets, LRU. The
  /// line size and the set count must be powers of two: a probe indexes by
  /// shift and mask.
  SetAssocCache(std::uint64_t bytes, std::uint32_t line_bytes, std::uint32_t assoc);

  /// Probes (and fills) the line containing `addr`. True on hit.
  bool access(std::uint64_t addr);

  void clear();
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    const std::uint64_t n = hits_ + misses_;
    return n == 0 ? 0.0 : static_cast<double>(misses_) / static_cast<double>(n);
  }
  std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  struct Way {
    std::uint64_t tag = kInvalid;
    std::uint64_t last_use = 0;
  };
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;  ///< log2(line_bytes_)
  std::uint32_t assoc_;
  std::uint64_t set_mask_;  ///< sets - 1
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace acgpu::cpumodel
