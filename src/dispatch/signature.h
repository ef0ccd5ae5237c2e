// acgpu::dispatch — workload signatures and signature buckets.
//
// The paper's own sweeps (Figs 13-23) show the winning matcher flips between
// serial CPU, parallel CPU, and the GPU kernel variants as input size,
// pattern count, and alphabet change. A WorkloadSignature is the cheap
// per-batch fingerprint the dispatcher keys those crossovers on:
//
//   - text_bytes           scan size (the dominant axis)
//   - pattern_count        dictionary size (STT rows ~ states)
//   - max/avg pattern len  chunk-overlap X and output density proxies
//   - alphabet_density     distinct bytes in a bounded sample / 256
//   - session              latency-sensitive serve superbatch vs bulk scan
//
// Pattern-derived fields depend only on the dictionary, so they are computed
// ONCE per automaton (PatternStats) and reused; per-batch extraction touches
// at most kDensitySampleBytes of the text. Signatures quantize into
// SignatureBuckets (log2 size classes) — the unit the cost model refines
// over (docs/DISPATCH.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ac/dfa.h"

namespace acgpu::dispatch {

/// Upper bound on bytes sampled for alphabet density; the sample is strided
/// evenly across the text so signature extraction is O(1) per batch.
inline constexpr std::size_t kDensitySampleBytes = 2048;

/// Dictionary-derived half of the signature; compute once per Dfa.
struct PatternStats {
  std::uint32_t pattern_count = 0;
  std::uint32_t max_pattern_len = 0;
  double avg_pattern_len = 0.0;
  std::uint32_t state_count = 0;
  std::uint64_t stt_bytes = 0;
};

PatternStats compute_pattern_stats(const ac::Dfa& dfa);

/// The full per-batch fingerprint the dispatcher routes on.
struct WorkloadSignature {
  std::uint64_t text_bytes = 0;
  std::uint32_t pattern_count = 0;
  std::uint32_t max_pattern_len = 0;
  double avg_pattern_len = 0.0;
  /// Distinct byte values in the sampled window / 256, in (0, 1].
  double alphabet_density = 0.0;
  /// true = latency-sensitive serve superbatch; false = bulk scan.
  bool session = false;
};

/// Cheap per-batch extraction: pattern fields come from `stats`, text fields
/// from a bounded strided sample of `text`.
WorkloadSignature make_signature(const PatternStats& stats,
                                 std::string_view text, bool session = false);

/// Convenience for one-off callers (tests, CLI): recomputes PatternStats.
WorkloadSignature make_signature(const ac::Dfa& dfa, std::string_view text,
                                 bool session = false);

/// Quantized signature — the granularity the cost model's online refinement
/// operates at. Two signatures in the same bucket are assumed to behave
/// alike.
struct SignatureBucket {
  std::uint8_t size_class = 0;     ///< floor(log2(text_bytes)), 0 for empty
  std::uint8_t pattern_class = 0;  ///< floor(log2(pattern_count))
  std::uint8_t length_class = 0;   ///< floor(log2(max_pattern_len))
  std::uint8_t density_class = 0;  ///< alphabet_density quantized to 0..7
  bool session = false;

  friend bool operator==(const SignatureBucket&,
                         const SignatureBucket&) = default;
};

SignatureBucket bucket_of(const WorkloadSignature& sig);

/// Stable textual key, e.g. "s12.p5.l3.d2.bulk" — used as the map key for
/// online refinement.
std::string bucket_key(const SignatureBucket& bucket);

}  // namespace acgpu::dispatch
