// Hazard taxonomy of the host-pipeline auditor (hostcheck) — the findings
// the happens-before analyzer in analyze.h emits.
//
// Where gpucheck's hazards live INSIDE one kernel launch (thread/address
// terms), hostcheck's live BETWEEN the host-orchestrated async operations:
// stream ops that touch overlapping device ranges without an ordering edge,
// and host lock-order inversions. A finding is identified in (sim, op)
// terms — the StreamSim registration id plus the op's timeline index —
// which pins the exact enqueue call site in the deterministic replay.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace acgpu::hostcheck {

enum class HazardKind : std::uint8_t {
  /// Conflicting device accesses (>= 1 write) on two ops with no
  /// happens-before edge — correct only by timing luck.
  kUnorderedConflict,
  /// The upload-reuse specialisation: an H2D write unordered against a
  /// kernel read of the same staging range (a skipped event wait, or an
  /// upload buffer rewritten from a stream other than its last reader's).
  kUploadReuse,
  /// A D2H read unordered against a write of the range it drains — the
  /// readback races the producer.
  kWriteDuringD2H,
  /// The lock-order graph over the tracked host mutexes has a cycle
  /// (AB/BA inversion — a latent deadlock).
  kLockOrderCycle,
};
constexpr std::size_t kHazardKindCount = 4;

const char* to_string(HazardKind kind);

/// One side of a finding: a stream op, addressed as (sim, op id). `op` < 0
/// marks an unused site (lock-order cycles name no op).
struct OpRef {
  std::uint32_t sim = 0;
  std::int64_t op = -1;

  bool valid() const { return op >= 0; }
};

std::ostream& operator<<(std::ostream& out, const OpRef& ref);

/// One finding: the kind, a formatted one-liner, and the structured sites
/// behind it. For conflict kinds `first` is the earlier-enqueued op and
/// `second` the one that completed the hazard; kLockOrderCycle carries the
/// cycle's mutex names instead.
struct HostHazard {
  HazardKind kind{};
  std::string message;
  OpRef first;
  OpRef second;
  std::vector<std::string> cycle;  ///< kLockOrderCycle: mutex names in order
};

std::ostream& operator<<(std::ostream& out, const HostHazard& hazard);

}  // namespace acgpu::hostcheck
