// Divergence minimizer: shrinks a diverging (patterns, text) workload to a
// minimal reproducer — greedy pattern dropping, delta-debugging-style text
// chunk removal, and pattern truncation, iterated to a fixpoint — and
// renders the result as a ready-to-paste C++ regression test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "oracle/differential.h"
#include "oracle/matcher.h"

namespace acgpu::oracle {

/// A shrunk diverging input. `divergence` is recomputed on the minimized
/// workload, so its expected/got records match what the pasted test sees.
struct Reproducer {
  Workload workload;
  std::string matcher;
  std::uint64_t salt = 0;
  Divergence divergence;
};

/// Shrinks `workload` while `matcher` (run with `salt`) still diverges from
/// the serial reference. Returns nullopt when the input does not diverge in
/// the first place. Candidates that fail to compile or throw while matching
/// are treated as uninteresting (only the original divergence counts).
/// Shrinking stops at a fixpoint or when its round or evaluation budget
/// (minimize.cpp) runs out, keeping the best reproducer found so far.
std::optional<Reproducer> minimize_divergence(const Workload& workload,
                                              const Matcher& matcher,
                                              std::uint64_t salt);

/// Renders a reproducer as a self-contained gtest TEST(...) body asserting
/// that the matcher agrees with the serial reference on the minimized
/// input. Bytes are emitted as 3-digit octal escapes, so arbitrary binary
/// patterns/texts round-trip through the C++ literal.
std::string to_cpp_test(const Reproducer& reproducer);

}  // namespace acgpu::oracle
