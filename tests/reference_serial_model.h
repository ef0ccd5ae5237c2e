// Reference serial-CPU model for the exactness tests: the tag-and-tick LRU
// cache and the single walk cpumodel ran before its caches kept their sets
// in recency order and its walk split across workers. Every estimate
// cpumodel::estimate_serial_prefixes returns must equal, to the bit, a
// fresh reference walk of that prefix.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/dfa.h"
#include "cpumodel/serial_timing.h"
#include "util/error.h"

namespace acgpu::cpumodel::reference {

/// Set-associative LRU that stamps each way with the tick of its last use
/// and evicts the oldest stamp (an empty way first).
class TickLruCache {
 public:
  TickLruCache(std::uint64_t bytes, std::uint32_t line_bytes, std::uint32_t assoc)
      : line_shift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
        assoc_(assoc) {
    ACGPU_CHECK(std::has_single_bit(line_bytes) && assoc > 0, "reference geometry");
    const std::uint64_t sets = bytes / (static_cast<std::uint64_t>(line_bytes) * assoc);
    ACGPU_CHECK(std::has_single_bit(sets), "reference set count " << sets);
    set_mask_ = sets - 1;
    ways_.assign(sets * assoc_, Way{});
  }

  bool access(std::uint64_t addr) {
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

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    const std::uint64_t n = hits_ + misses_;
    return n == 0 ? 0.0 : static_cast<double>(misses_) / static_cast<double>(n);
  }

 private:
  struct Way {
    std::uint64_t tag = kInvalid;
    std::uint64_t last_use = 0;
  };
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  std::uint32_t line_shift_;
  std::uint32_t assoc_;
  std::uint64_t set_mask_ = 0;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// One fresh walk of all of `sample` through a TickLruCache L1 and L2,
/// scaled to `full_text_len` bytes.
inline SerialEstimate estimate_serial(const ac::Dfa& dfa, std::string_view sample,
                                      std::uint64_t full_text_len,
                                      const CpuConfig& config) {
  TickLruCache l1(config.l1_bytes, config.l1_line_bytes, config.l1_assoc);
  TickLruCache l2(config.l2_bytes, config.l2_line_bytes, config.l2_assoc);
  const std::uint64_t pitch_bytes = static_cast<std::uint64_t>(dfa.byte_pitch()) * 4;
  const std::uint64_t text_base = static_cast<std::uint64_t>(dfa.state_count()) * pitch_bytes;

  std::uint64_t extra_cycles = 0;
  auto touch = [&](std::uint64_t addr) {
    if (l1.access(addr)) return;
    if (l2.access(addr)) {
      extra_cycles += config.l2_hit_cycles;
      return;
    }
    extra_cycles += config.l2_hit_cycles + config.mem_cycles;
  };

  std::int32_t state = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto byte = static_cast<std::uint8_t>(sample[i]);
    touch(text_base + i);
    const std::uint64_t row = static_cast<std::uint64_t>(state) * pitch_bytes;
    touch(row + (1 + byte) * 4);
    state = dfa.next(state, byte);
    touch(static_cast<std::uint64_t>(state) * pitch_bytes);
  }

  SerialEstimate est;
  est.sampled_bytes = sample.size();
  est.cycles_per_byte =
      config.base_cycles_per_byte +
      static_cast<double>(extra_cycles) / static_cast<double>(sample.size());
  est.seconds = static_cast<double>(full_text_len) * est.cycles_per_byte /
                (config.clock_ghz * 1e9);
  est.l1_miss_rate = l1.miss_rate();
  est.l2_miss_rate = l2.miss_rate();
  return est;
}

}  // namespace acgpu::cpumodel::reference
