// Per-SM texture cache model: set-associative with LRU replacement, indexed
// by device byte address. The paper stores the STT in texture memory so the
// hot (shallow) automaton states stay cached; the pattern-count sweeps in
// Figs 16-18 hinge on this cache's hit rate falling as the STT grows.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device_memory.h"

namespace acgpu::gpusim {

class TextureCache {
 public:
  /// `bytes` capacity, `line_bytes` per line, `assoc`-way sets, LRU. The
  /// line size and the set count must be powers of two: a probe indexes by
  /// shift and mask.
  TextureCache(std::uint32_t bytes, std::uint32_t line_bytes, std::uint32_t assoc);

  /// Probes the line containing `addr`; fills it on miss. Returns true on hit.
  bool access(DevAddr addr);

  /// Probe without filling (tests/inspection).
  bool contains(DevAddr addr) const;

  void clear();

  std::uint32_t line_bytes() const { return line_bytes_; }
  /// log2(line_bytes()): an address's line is addr >> line_shift().
  std::uint32_t line_shift() const { return line_shift_; }
  std::uint32_t sets() const { return set_mask_ + 1; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    DevAddr tag = kInvalid;
    std::uint64_t last_use = 0;
  };
  static constexpr DevAddr kInvalid = ~DevAddr{0};

  std::size_t set_index(DevAddr line) const { return line & set_mask_; }

  std::uint32_t line_bytes_;
  std::uint32_t line_shift_;
  std::uint32_t assoc_;
  std::uint32_t set_mask_;  ///< sets - 1
  std::vector<Way> ways_;  // sets_ x assoc_
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace acgpu::gpusim
