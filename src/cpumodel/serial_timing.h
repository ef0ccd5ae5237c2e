// Timing model for the paper's serial baseline (2.2 GHz Core2).
//
// Why a model instead of host wall-clock: the GPU side of every speedup
// figure is *simulated* GTX 285 time, so the CPU side must be measured in
// the same world for the ratios to mean anything. The model walks the DFA
// over a sample of the input, runs every STT access through an L1/L2 cache
// model, and converts cycles/byte into seconds at the Core2 clock. Host
// wall-clock is still measured and reported alongside (harness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ac/dfa.h"

namespace acgpu::cpumodel {

struct CpuConfig {
  double clock_ghz = 2.2;  ///< paper's Intel Core2

  /// DFA inner-loop cost with all data in L1: byte load, column index
  /// arithmetic, STT load, match-column test, loop bookkeeping. Core2
  /// retires this dependent chain in roughly a dozen cycles.
  std::uint32_t base_cycles_per_byte = 12;

  // Core2-class cache hierarchy.
  std::uint64_t l1_bytes = 32 * 1024;
  std::uint32_t l1_line_bytes = 64;
  std::uint32_t l1_assoc = 8;
  std::uint64_t l2_bytes = 2 * 1024 * 1024;
  std::uint32_t l2_line_bytes = 64;
  std::uint32_t l2_assoc = 8;

  std::uint32_t l2_hit_cycles = 14;   ///< extra cycles on an L1 miss that hits L2
  std::uint32_t mem_cycles = 230;     ///< extra cycles on an L2 miss

  static CpuConfig core2();
};

struct SerialEstimate {
  double cycles_per_byte = 0;
  double seconds = 0;  ///< for the full text length passed in
  double l1_miss_rate = 0;
  double l2_miss_rate = 0;  ///< misses per L2 access (i.e. per L1 miss)
  std::uint64_t sampled_bytes = 0;
};

/// Walks the DFA over `sample` (typically a prefix of the real input),
/// simulating the cache behaviour of every STT and input access, then
/// scales cycles/byte to `full_text_len` bytes. The one-prefix case of
/// estimate_serial_prefixes.
SerialEstimate estimate_serial(const ac::Dfa& dfa, std::string_view sample,
                               std::uint64_t full_text_len,
                               const CpuConfig& config = CpuConfig::core2());

/// One walk of `sample` that reports every prefix: element i is exactly
/// what estimate_serial(dfa, sample.substr(0, prefixes[i]), prefixes[i],
/// config) returns, since a fresh walk of a prefix ends where the longer
/// walk stands at that byte. `prefixes` must ascend strictly from at least
/// 1 to at most sample.size().
///
/// The cache simulation splits across worker threads by the address bits
/// that index both caches' sets: an LRU set changes only when its own lines
/// are accessed, so each worker walks the DFA and simulates only the sets
/// of its share, and the shares' integer counts sum to one walk's. The
/// worker count is a power of two no larger than the hardware thread count,
/// the shares those common index bits allow, and one per 256 KB walked.
std::vector<SerialEstimate> estimate_serial_prefixes(
    const ac::Dfa& dfa, std::string_view sample, std::span<const std::size_t> prefixes,
    const CpuConfig& config = CpuConfig::core2());

}  // namespace acgpu::cpumodel
