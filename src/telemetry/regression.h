// Perf-regression gate: compares a fresh MetricsSnapshot against a
// checked-in baseline of named bounds with tolerance bands. This is what
// protects the pipeline's overlap win, the diagonal scheme's degree-1 bank
// behaviour, and the texture-cache hit-rate floor from silent regression
// (bench/check_regression + the telemetry ctest label run it in CI).
//
// Baseline JSON (bench/baselines/telemetry_baseline.json):
//
//   {
//     "workload": {"size_bytes": ..., "streams": ...},   // documentation
//     "checks": [
//       {"name": "pipeline.overlap_ratio", "min": 0.90},
//       {"name": "gpusim.shared.max_degree", "min": 1, "max": 1},
//       {"name": "gpusim.tex.hit_rate", "min": 0.95}
//     ]
//   }
//
// A check may carry "min", "max", or both; the band between them is the
// tolerance, and min == max pins the value exactly. "fixed": true marks
// bounds that are not measured from a run (a wall-clock ceiling, say), so
// --write-baseline keeps them as written. A name missing from the
// snapshot is itself a violation — a deleted series must be a deliberate
// baseline update, never an accident (the update workflow is in
// docs/OBSERVABILITY.md).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics_registry.h"
#include "util/error.h"

namespace acgpu::telemetry {

struct RegressionCheck {
  std::string name;
  std::optional<double> min;
  std::optional<double> max;
  /// The bounds are set by hand, not banded from a run: write_baseline
  /// writes the check back exactly as parsed. Evaluation ignores it.
  bool fixed = false;
};

struct RegressionBaseline {
  std::vector<RegressionCheck> checks;
  /// Every other top-level member ("_comment", "workload", ...): its name and
  /// the source text of its value, in document order.
  std::vector<std::pair<std::string, std::string>> members;
};

/// Parses a baseline document. Fails (no throw) on malformed JSON, a check
/// without a name, or a check with neither bound.
Result<RegressionBaseline> parse_baseline(std::string_view json_text);

struct RegressionViolation {
  std::string name;
  bool missing = false;  ///< the snapshot has no series of this name
  double value = 0;      ///< observed (when present)
  std::string detail;    ///< human-readable "0.42 below min 0.90"
};

struct RegressionVerdict {
  std::vector<RegressionViolation> violations;
  std::size_t checks = 0;
  bool pass() const { return violations.empty(); }
};

/// Applies every baseline check to the snapshot.
RegressionVerdict check_regression(const MetricsSnapshot& snapshot,
                                   const RegressionBaseline& baseline);

/// Per-check table (name, bounds, observed, verdict) for CLI output.
void write_verdict_table(const MetricsSnapshot& snapshot,
                         const RegressionBaseline& baseline, std::ostream& out);

/// Rewrites `baseline` around the snapshot's current values, each check
/// keeping its shape — the --write-baseline update workflow:
///  - a fixed check keeps its bounds;
///  - an exact pin (min == max) is re-pinned at the observed value;
///  - a bound of exactly 0 stays 0 (latency and SLO floors);
///  - every other min moves to value*(1-slack) and max to value*(1+slack),
///    so a one-sided check keeps its one bound.
/// The baseline's other members are written back verbatim. Throws
/// acgpu::Error, writing nothing, when a check's series is missing from the
/// snapshot.
void write_baseline(const MetricsSnapshot& snapshot,
                    const RegressionBaseline& baseline, double slack,
                    std::ostream& out);

}  // namespace acgpu::telemetry
