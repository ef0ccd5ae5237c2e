// Seeded deterministic workload generator for the conformance oracle.
//
// Workloads cycle through hand-designed families that target the places
// where reformulated matchers historically diverge: patterns straddling
// chunk/overlap boundaries at X = max pattern length, suffix-of-suffix
// output chains, patterns longer than a thread chunk, degenerate alphabets
// (empty/1-byte texts, a single repeated byte, all 256 byte values
// including 0x00 and 0xFF), adversarial overlap-heavy dictionaries, and the
// edges of the AC kernel's overlap exit.
// generate_workload(seed, i) is a pure function — the same (seed, i) pair
// always yields byte-identical patterns and text, so any CLI-reported
// divergence replays exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "oracle/matcher.h"

namespace acgpu::oracle {

/// Number of distinct workload families the generator cycles through.
std::size_t workload_family_count();

/// The family a given iteration draws from (iteration % family count) —
/// exposed so tests can target one family.
const char* workload_family_name(std::uint64_t iteration);

/// Deterministically generates workload `iteration` of a conformance run
/// rooted at `seed`. Guarantees: at least one non-empty pattern; every
/// pattern is at most 120 bytes (so the shared-memory kernels' staged block
/// always fits); the text may be empty.
Workload generate_workload(std::uint64_t seed, std::uint64_t iteration);

}  // namespace acgpu::oracle
