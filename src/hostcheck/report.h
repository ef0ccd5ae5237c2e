// Host-audit report: the machine-readable outcome of analysing one or more
// recorded traces. Holds hazard exemplars (capped; occurrence counts
// survive the cap) plus trace-shape counters that prove the audit saw real
// work. Serialises to human-readable text and to JSON (consumed by the
// ac_hostcheck CLI, the hostcheck tests, and CI artifacts). The structure
// mirrors gpucheck::AuditReport so the two auditors read the same way.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "hostcheck/hazard.h"

namespace acgpu::telemetry {
class MetricsRegistry;
}

namespace acgpu::hostcheck {

struct HostAuditReport {
  std::vector<HostHazard> hazards;  ///< exemplars, capped by AnalyzeOptions
  /// Total occurrences per HazardKind, including capped findings
  /// (index = static_cast<std::size_t>(kind)).
  std::array<std::uint64_t, kHazardKindCount> occurrences{};
  std::uint64_t dropped_hazards = 0;  ///< findings beyond the exemplar cap

  // Trace-shape counters (sanity that the audit actually saw work).
  std::uint64_t sims = 0;      ///< StreamSims analysed
  std::uint64_t ops = 0;       ///< stream ops (H2D/kernel/D2H)
  std::uint64_t accesses = 0;  ///< annotated device-range accesses
  std::uint64_t lock_events = 0;  ///< TrackedMutex acquires + releases
  std::uint64_t mutexes = 0;      ///< distinct tracked mutexes
  std::uint64_t lock_edges = 0;   ///< distinct held -> acquired pairs

  std::uint64_t count(HazardKind kind) const {
    return occurrences[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_hazards() const;
  /// True when no hazard of any kind occurred (counters are not verdicts).
  bool clean() const { return total_hazards() == 0; }

  /// Folds `other` into this report, keeping at most `max_hazards`
  /// exemplars.
  void merge(const HostAuditReport& other, std::size_t max_hazards);

  void write_text(std::ostream& out) const;
  void write_json(std::ostream& out) const;
};

/// The report's telemetry projection: (metric name, value) pairs under the
/// "hostcheck." prefix (hostcheck.hazards, hostcheck.ops, one
/// hostcheck.hazard.<kind> entry per kind, ...). Single source of truth for
/// both the "telemetry" object in write_json and publish() below.
std::vector<std::pair<std::string, double>> telemetry_series(
    const HostAuditReport& report);

/// Publishes telemetry_series() into `registry` as gauges (hazard counts
/// via set_max so repeated audits keep the worst case).
void publish(const HostAuditReport& report, telemetry::MetricsRegistry& registry);

}  // namespace acgpu::hostcheck
