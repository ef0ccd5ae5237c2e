// The audit harness: runs every shipped kernel variant under the Recorder
// over oracle workloads, applies per-target hazard budgets, and checks the
// kernel's match output against the serial reference at the same time — a
// hazard-free launch that returns wrong matches is still a failed audit.
//
// Per-target budgets (what "clean" asserts beyond the recorder's analyzers):
//
//   target               bank budget        staging coalescing
//   ac-global            —                  —   (byte loads, by design)
//   ac-shared-diagonal   max degree 1       required
//   ac-shared-naive      conflicts EXPECTED required
//   ac-shared-seq        —                  —   (per-thread serial copy)
//   compressed           —                  required (root-row reads scatter)
//   pfac                 —                  —   (lane death scatters loads)
//   pipeline             max degree 1       required (shared kernel per batch)
//
// ac-shared-diagonal audits each workload at 12, 16, 32 and 64-byte chunks
// (3/4/8/16 words; the widths above the dictionary's overlap): the
// generalised rotation keeps the matching reads at degree 1 at every width,
// and at these widths the staging stores too. The other shared-staging
// targets round their chunk up to a multiple of 64 bytes (16 words on the
// 16-bank model): the naive scheme's "conflicts expected" assertion — the
// paper's Fig. 23 motivation — only holds there (row-major is conflict-free
// at odd word counts), and it applies once the text is long enough that at
// least two threads of a half-warp scan concurrently (text_len >
// chunk_bytes).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gpucheck/recorder.h"
#include "oracle/matcher.h"

namespace acgpu::gpucheck {

enum class AuditTarget : std::uint8_t {
  kAcGlobal,            ///< ac_kernel, global-only approach
  kAcSharedDiagonal,    ///< ac_kernel, shared staging, diagonal scheme
  kAcSharedNaive,       ///< ac_kernel, shared staging, row-major scheme
  kAcSharedSequential,  ///< ac_kernel, per-thread serial staging
  kCompressed,          ///< ac_kernel over the compressed STT, diagonal scheme
  kPfac,                ///< failureless (PFAC) kernel
  kPipeline,            ///< batched multi-stream pipeline, shared kernel
};

const char* to_string(AuditTarget target);
const std::vector<AuditTarget>& all_audit_targets();
/// Resolves a target by its to_string name; throws acgpu::Error on an
/// unknown name (the message lists the valid ones).
AuditTarget audit_target_from_name(std::string_view name);

/// A hazard budget applied on top of a Recorder's report. Exposed so tests
/// can assert budgets against hand-built kernels too.
struct Budget {
  std::uint32_t max_bank_degree = 0;     ///< 0 = no cap
  bool expect_bank_conflicts = false;    ///< degree must EXCEED 1 (naive)
  bool require_coalesced_staging = false;
};

/// The static budget of one audit target (the dynamic naive-scheme
/// expectation is enabled by audit_workload once the text qualifies).
Budget target_budget(AuditTarget target);

/// Appends budget-violation hazards (kBankConflictBudget,
/// kCoalescingExcess) to `report` based on its statistics.
void apply_budget(AuditReport& report, const Budget& budget);

struct AuditOutcome {
  AuditReport report;
  bool matches_ok = false;  ///< kernel output equals the serial reference
  std::uint64_t match_count = 0;
};

/// Runs `target` over one compiled workload under the Recorder, applies the
/// target's budget, and diffs the matches against the serial reference.
AuditOutcome audit_workload(AuditTarget target,
                            const oracle::CompiledWorkload& workload);

struct SweepTargetResult {
  AuditTarget target{};
  AuditReport report;  ///< merged across all audited workloads
  std::uint64_t workloads = 0;
  std::uint64_t mismatches = 0;  ///< workloads whose matches diverged
};

/// PR-1 conformance workloads under audit: generates `iterations` oracle
/// workloads from `seed` (oracle::generate_workload) and audits each target
/// over each of them. An empty `targets` list means all targets.
std::vector<SweepTargetResult> audit_conformance(
    std::uint64_t seed, std::uint64_t iterations,
    const std::vector<AuditTarget>& targets = {});

}  // namespace acgpu::gpucheck
