// Audit report: the machine-readable outcome of running one or more kernel
// launches under the gpucheck Recorder. Holds the hazard exemplars (capped;
// the full occurrence counts survive the cap), plus whole-launch coalescing
// and bank-conflict statistics that the audit layer turns into budget
// verdicts. Serialises to human-readable text and to JSON (consumed by the
// ac_memcheck CLI and by CI).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "gpucheck/hazard.h"

namespace acgpu::telemetry {
class MetricsRegistry;
}

namespace acgpu::gpucheck {

/// Hazard exemplars a report keeps; occurrences keep counting past it.
constexpr std::size_t kMaxHazards = 64;

/// Warp-load coalescing tally (loads only: GlobalLoadU8 / GlobalLoadU32).
/// `ideal` for one request is the number of segments a contiguous packing of
/// the accessed bytes starting at the request's lowest address would touch —
/// so unavoidable segment straddles are not penalised, but scattered or
/// strided lanes are.
struct CoalescingStats {
  std::uint64_t load_requests = 0;      ///< warp-level load instructions
  std::uint64_t load_transactions = 0;  ///< segments actually touched
  std::uint64_t ideal_transactions = 0;
  std::uint64_t excess_requests = 0;  ///< requests with actual > ideal
  std::uint32_t worst_actual = 0;     ///< of the worst excess request
  std::uint32_t worst_ideal = 0;
  AccessSite worst;  ///< first lane of the worst excess request

  /// The subset a kernel CAN keep coalesced and the budgets assert on: the
  /// cooperative-staging class — 4-byte loads in barrier epoch 0.
  /// Match-emission CSR loads (epoch >= 1, data-dependent scatter) and
  /// byte-granular matching loads fall outside it by construction.
  std::uint64_t staging_requests = 0;
  std::uint64_t staging_excess = 0;
  std::uint32_t staging_worst_actual = 0;
  std::uint32_t staging_worst_ideal = 0;
  AccessSite staging_worst;

  void merge(const CoalescingStats& other);
};

/// Shared-memory bank-conflict tally across every warp-level shared access.
struct BankStats {
  std::uint64_t accesses = 0;             ///< warp-level shared instructions
  std::uint64_t conflicted_accesses = 0;  ///< accesses with degree > 1
  std::uint32_t max_degree = 0;           ///< worst per-group conflict degree
  AccessSite worst;                       ///< first lane of the worst access

  void merge(const BankStats& other);
};

struct AuditReport {
  std::vector<Hazard> hazards;  ///< exemplars, capped at the recorder's limit
  /// Total occurrences per HazardKind, including deduplicated and capped
  /// findings (index = static_cast<std::size_t>(kind)).
  std::array<std::uint64_t, kHazardKindCount> occurrences{};
  std::uint64_t dropped_hazards = 0;  ///< findings beyond the exemplar cap

  CoalescingStats coalescing;
  BankStats bank;

  // Launch-shape counters (sanity that the audit actually saw work).
  std::uint64_t blocks = 0;
  std::uint64_t warps = 0;
  std::uint64_t barriers = 0;  ///< barrier releases observed
  std::uint64_t accesses = 0;  ///< warp-level memory instructions observed

  std::uint64_t count(HazardKind kind) const {
    return occurrences[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_hazards() const;
  /// True when no hazard of any kind occurred (statistics are not verdicts:
  /// a report with bank conflicts but no budget hazard is still clean).
  bool clean() const { return total_hazards() == 0; }

  /// Folds `other` into this report, keeping at most kMaxHazards exemplars.
  void merge(const AuditReport& other);

  void write_text(std::ostream& out) const;
  void write_json(std::ostream& out) const;
};

/// The report's telemetry projection: (metric name, value) pairs under the
/// "gpucheck." prefix (gpucheck.bank.max_degree, gpucheck.coalescing.ratio,
/// ...). This is the single source of truth for both the "telemetry" object
/// in AuditReport::write_json and publish() below, so an audit's JSON and a
/// metrics snapshot of the same run can never disagree.
std::vector<std::pair<std::string, double>> telemetry_series(
    const AuditReport& report);

/// Publishes telemetry_series() into `registry` as gauges (max_degree via
/// set_max so repeated audits keep the worst case).
void publish(const AuditReport& report, telemetry::MetricsRegistry& registry);

}  // namespace acgpu::gpucheck
