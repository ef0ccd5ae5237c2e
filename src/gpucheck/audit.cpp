#include "gpucheck/audit.h"

#include <algorithm>
#include <sstream>

#include "ac/chunking.h"
#include "ac/match.h"
#include "kernels/ac_kernel.h"
#include "kernels/pfac_kernel.h"
#include "oracle/workload_gen.h"
#include "pipeline/pipeline.h"
#include "util/error.h"

namespace acgpu::gpucheck {
namespace {

using oracle::CompiledWorkload;

struct TargetInfo {
  AuditTarget target;
  const char* name;
  Budget budget;
};

constexpr Budget kNoBudget{};
constexpr Budget kDiagonalBudget{1, false, true};
constexpr Budget kNaiveBudget{0, true, true};
constexpr Budget kStagingOnlyBudget{0, false, true};

/// Block size of every audited launch.
constexpr std::uint32_t kThreadsPerBlock = 64;
/// Chunk floor of the single-width targets (all but ac-shared-diagonal),
/// before pick_chunk rounds it up past the dictionary's overlap.
constexpr std::uint32_t kChunkFloorBytes = 64;

const TargetInfo kTargets[] = {
    {AuditTarget::kAcGlobal, "ac-global", kNoBudget},
    {AuditTarget::kAcSharedDiagonal, "ac-shared-diagonal", kDiagonalBudget},
    {AuditTarget::kAcSharedNaive, "ac-shared-naive", kNaiveBudget},
    {AuditTarget::kAcSharedSequential, "ac-shared-sequential", kNoBudget},
    {AuditTarget::kCompressed, "compressed", kStagingOnlyBudget},
    {AuditTarget::kPfac, "pfac", kNoBudget},
    {AuditTarget::kPipeline, "pipeline", kDiagonalBudget},
};

const TargetInfo& info_of(AuditTarget target) {
  for (const TargetInfo& info : kTargets)
    if (info.target == target) return info;
  ACGPU_CHECK(false, "unknown audit target id "
                         << static_cast<unsigned>(target));
  return kTargets[0];
}

std::uint32_t overlap_of(const CompiledWorkload& w) {
  return ac::required_overlap(w.dfa().max_pattern_length());
}

/// Chunk for the single-width targets: a multiple of 64 bytes (16 words on
/// the 16-bank model) strictly above the dictionary's overlap. The naive
/// scheme's expected conflicts only materialise at such widths: at odd
/// word counts row-major is conflict-free.
std::uint32_t pick_chunk(const CompiledWorkload& w) {
  const std::uint32_t chunk = std::max(kChunkFloorBytes, overlap_of(w) + 1);
  return (chunk + 63) / 64 * 64;
}

/// Widths the diagonal target audits: 3, 4, 8 and 16 words — what the
/// pipeline derives for DNA and text dictionaries, its wide-batch chunk, and
/// the paper's 64 bytes.
constexpr std::uint32_t kDiagonalChunkBytes[] = {12, 16, 32, 64};

gpusim::DeviceMemory make_device(std::size_t text_bytes, std::uint64_t threads,
                                 std::uint32_t capacity,
                                 std::size_t table_bytes) {
  const std::size_t buffer = threads * (2 + 4ull * capacity);  // MatchBuffer at most
  return gpusim::DeviceMemory((8u << 20) + text_bytes + 2 * table_bytes +
                              2 * buffer);
}

gpusim::GpuConfig audit_config() {
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;  // functional-mode audits simulate every block
  return cfg;
}

void push_budget_hazard(AuditReport& report, HazardKind kind,
                        std::string message, AccessSite site) {
  ++report.occurrences[static_cast<std::size_t>(kind)];
  if (report.hazards.size() >= kMaxHazards) {
    ++report.dropped_hazards;
    return;
  }
  Hazard h;
  h.kind = kind;
  h.message = std::move(message);
  h.first = site;
  report.hazards.push_back(std::move(h));
}

/// Runs `launch(capacity)` with growing match capacity until the device
/// buffer stops overflowing; each retry uses a fresh Recorder so hazards are
/// not double-counted. `launch` fills `report` and returns the Collected.
template <typename Launch>
kernels::MatchBuffer::Collected collect_audited(const char* who,
                                                Launch&& launch) {
  for (std::uint32_t capacity = 64; capacity <= (1u << 14); capacity *= 4) {
    auto collected = launch(capacity);
    if (!collected.overflowed) return collected;
  }
  ACGPU_CHECK(false, who << ": match buffer overflow at capacity " << (1u << 14));
  return {};
}

bool same_matches(std::vector<ac::Match> got,
                  const std::vector<ac::Match>& expected) {
  ac::normalize_matches(got);
  return got == expected;
}

AuditOutcome audit_ac(AuditTarget target, const CompiledWorkload& w,
                      std::uint32_t chunk_bytes) {
  kernels::AcLaunchSpec ls;
  switch (target) {
    case AuditTarget::kAcGlobal:
      ls.approach = kernels::Approach::kGlobalOnly;
      break;
    case AuditTarget::kAcSharedDiagonal:
      ls.approach = kernels::Approach::kShared;
      ls.scheme = kernels::StoreScheme::kDiagonal;
      break;
    case AuditTarget::kAcSharedNaive:
      ls.approach = kernels::Approach::kShared;
      ls.scheme = kernels::StoreScheme::kCoalescedNaive;
      break;
    case AuditTarget::kAcSharedSequential:
      ls.approach = kernels::Approach::kShared;
      ls.scheme = kernels::StoreScheme::kSequential;
      break;
    case AuditTarget::kCompressed:
      ls.approach = kernels::Approach::kShared;
      ls.scheme = kernels::StoreScheme::kDiagonal;
      break;
    default:
      ACGPU_CHECK(false, "audit_ac called with a non-ac target");
  }
  ls.chunk_bytes = chunk_bytes;
  ls.threads_per_block = kThreadsPerBlock;
  ls.sim.mode = gpusim::SimMode::Functional;

  const gpusim::GpuConfig cfg = audit_config();
  const std::uint64_t threads =
      (w.text().size() + ls.chunk_bytes - 1) / ls.chunk_bytes +
      ls.threads_per_block;
  const bool compressed = target == AuditTarget::kCompressed;
  const std::size_t table_bytes = compressed
                                      ? w.compressed().size_bytes() + (1u << 20)
                                      : kernels::DeviceDfa::upload_bytes(w.dfa());

  AuditOutcome outcome;
  const auto collected =
      collect_audited(to_string(target), [&](std::uint32_t capacity) {
        ls.match_capacity = capacity;
        Recorder recorder;
        ls.sim.observer = &recorder;
        gpusim::DeviceMemory mem =
            make_device(w.text().size(), threads, capacity, table_bytes);
        const auto launch = [&](const auto& table) {
          const auto addr = kernels::upload_class_text(mem, table, w.text());
          return kernels::run_ac_kernel(cfg, mem, table, addr, w.text().size(), ls)
              .matches;
        };
        auto matches =
            compressed
                ? launch(kernels::DeviceCompressedDfa(mem, w.compressed(), w.dfa()))
                : launch(kernels::DeviceDfa(mem, w.dfa()));
        outcome.report = recorder.take_report();
        return matches;
      });

  Budget budget = info_of(target).budget;
  // At least two threads of a half-warp must scan concurrently for the
  // naive scheme's conflicts to be observable.
  if (ls.approach != kernels::Approach::kShared ||
      w.text().size() <= ls.chunk_bytes)
    budget.expect_bank_conflicts = false;
  apply_budget(outcome.report, budget);

  outcome.match_count = collected.matches.size();
  outcome.matches_ok =
      same_matches(collected.matches, oracle::reference_matches(w));
  return outcome;
}

/// The diagonal scheme at every width in kDiagonalChunkBytes above the
/// overlap (the single-width chunk when none is), one launch each, merged
/// into one outcome.
AuditOutcome audit_diagonal(const CompiledWorkload& w) {
  std::vector<std::uint32_t> widths;
  for (const std::uint32_t chunk : kDiagonalChunkBytes)
    if (chunk > overlap_of(w)) widths.push_back(chunk);
  if (widths.empty()) widths.push_back(pick_chunk(w));

  AuditOutcome merged;
  merged.matches_ok = true;
  for (const std::uint32_t chunk : widths) {
    const AuditOutcome one = audit_ac(AuditTarget::kAcSharedDiagonal, w, chunk);
    merged.report.merge(one.report);
    merged.matches_ok = merged.matches_ok && one.matches_ok;
    merged.match_count = one.match_count;
  }
  return merged;
}

AuditOutcome audit_pfac(const CompiledWorkload& w) {
  kernels::PfacLaunchSpec ls;
  ls.threads_per_block = kThreadsPerBlock;
  ls.sim.mode = gpusim::SimMode::Functional;

  const gpusim::GpuConfig cfg = audit_config();
  const std::uint64_t threads = w.text().size() + ls.threads_per_block;

  AuditOutcome outcome;
  const auto collected = collect_audited("pfac", [&](std::uint32_t capacity) {
    ls.match_capacity = capacity;
    Recorder recorder;
    ls.sim.observer = &recorder;
    gpusim::DeviceMemory mem = make_device(w.text().size(), threads, capacity,
                                           w.pfac().stt().size_bytes());
    const kernels::DevicePfac dpfac(mem, w.pfac());
    const auto addr = kernels::upload_text(mem, w.text());
    auto matches =
        kernels::run_pfac_kernel(cfg, mem, dpfac, addr, w.text().size(), ls)
            .matches;
    outcome.report = recorder.take_report();
    return matches;
  });

  outcome.match_count = collected.matches.size();
  outcome.matches_ok =
      same_matches(collected.matches, oracle::reference_matches(w));
  return outcome;
}

/// The batched multi-stream pipeline under audit: the shared/diagonal kernel
/// launched once per batch on one Recorder, so the cross-launch analyzers see
/// the whole batched run (slot staging, per-batch buffers) as one history.
/// The batch size targets a handful of batches so slot cycling and boundary
/// stitching are both on the record.
AuditOutcome audit_pipeline(const CompiledWorkload& w) {
  pipeline::PipelineOptions opt;
  opt.streams = 2;
  opt.chunk_bytes = pick_chunk(w);
  opt.threads_per_block = kThreadsPerBlock;
  opt.mode = gpusim::SimMode::Functional;
  opt.batch_bytes =
      std::max<std::uint64_t>(opt.chunk_bytes, (w.text().size() + 2) / 3);

  const gpusim::GpuConfig cfg = audit_config();
  AuditOutcome outcome;
  std::vector<ac::Match> matches;
  for (std::uint32_t capacity = 64; capacity <= (1u << 14); capacity *= 4) {
    opt.match_capacity = capacity;
    Recorder recorder;
    opt.observer = &recorder;
    // Observer-attached runs keep every batch's buffers live (the recorder's
    // cross-launch shadow would misread recycling); budget for all of them.
    gpusim::DeviceMemory mem(64u << 20);
    const kernels::DeviceDfa ddfa(mem, w.dfa());
    pipeline::MatchPipeline pipe(cfg, mem, ddfa, opt);
    auto r = pipe.run(w.text());
    ACGPU_CHECK(r.is_ok(), "pipeline audit: " << r.status().to_string());
    outcome.report = recorder.take_report();
    if (!r.value().overflowed) {
      matches = std::move(r.value().matches);
      break;
    }
    ACGPU_CHECK(capacity * 4 <= (1u << 14),
                "pipeline audit: match buffer overflow at capacity " << capacity);
  }

  apply_budget(outcome.report, info_of(AuditTarget::kPipeline).budget);
  outcome.match_count = matches.size();
  outcome.matches_ok =
      same_matches(std::move(matches), oracle::reference_matches(w));
  return outcome;
}

}  // namespace

const char* to_string(AuditTarget target) { return info_of(target).name; }

const std::vector<AuditTarget>& all_audit_targets() {
  static const std::vector<AuditTarget> all = [] {
    std::vector<AuditTarget> v;
    for (const TargetInfo& info : kTargets) v.push_back(info.target);
    return v;
  }();
  return all;
}

AuditTarget audit_target_from_name(std::string_view name) {
  for (const TargetInfo& info : kTargets)
    if (name == info.name) return info.target;
  std::ostringstream known;
  for (const TargetInfo& info : kTargets) known << " " << info.name;
  ACGPU_CHECK(false, "unknown audit target '" << name << "'; known:" << known.str());
  return AuditTarget::kAcGlobal;
}

Budget target_budget(AuditTarget target) { return info_of(target).budget; }

void apply_budget(AuditReport& report, const Budget& budget) {
  if (budget.max_bank_degree > 0 &&
      report.bank.max_degree > budget.max_bank_degree) {
    std::ostringstream msg;
    msg << "shared conflict degree " << report.bank.max_degree
        << " exceeds the target budget of " << budget.max_bank_degree;
    push_budget_hazard(report, HazardKind::kBankConflictBudget, msg.str(),
                       report.bank.worst);
  }
  if (budget.expect_bank_conflicts && report.bank.max_degree <= 1 &&
      report.bank.accesses > 0) {
    std::ostringstream msg;
    msg << "expected bank conflicts are absent: the scheme audited at degree "
        << report.bank.max_degree << " over " << report.bank.accesses
        << " shared accesses (is the audit wired to the right layout?)";
    push_budget_hazard(report, HazardKind::kBankConflictBudget, msg.str(), {});
  }
  if (budget.require_coalesced_staging &&
      report.coalescing.staging_excess > 0) {
    std::ostringstream msg;
    msg << report.coalescing.staging_excess << " of "
        << report.coalescing.staging_requests
        << " staging-class load(s) exceeded their ideal transaction count "
           "(worst "
        << report.coalescing.staging_worst_actual << " vs "
        << report.coalescing.staging_worst_ideal << ")";
    push_budget_hazard(report, HazardKind::kCoalescingExcess, msg.str(),
                       report.coalescing.staging_worst);
  }
}

AuditOutcome audit_workload(AuditTarget target, const CompiledWorkload& w) {
  if (w.text().empty()) {
    // The kernels have no work on an empty text (the adapters return {} the
    // same way); a trivially clean report with an empty-match diff.
    AuditOutcome outcome;
    outcome.matches_ok = oracle::reference_matches(w).empty();
    return outcome;
  }
  switch (target) {
    case AuditTarget::kPfac:
      return audit_pfac(w);
    case AuditTarget::kPipeline:
      return audit_pipeline(w);
    case AuditTarget::kAcSharedDiagonal:
      return audit_diagonal(w);
    default:
      return audit_ac(target, w, pick_chunk(w));
  }
}

std::vector<SweepTargetResult> audit_conformance(
    std::uint64_t seed, std::uint64_t iterations,
    const std::vector<AuditTarget>& targets) {
  const std::vector<AuditTarget>& picked =
      targets.empty() ? all_audit_targets() : targets;
  std::vector<SweepTargetResult> results(picked.size());
  for (std::size_t t = 0; t < picked.size(); ++t) results[t].target = picked[t];

  for (std::uint64_t i = 0; i < iterations; ++i) {
    const CompiledWorkload w(oracle::generate_workload(seed, i));
    for (std::size_t t = 0; t < picked.size(); ++t) {
      AuditOutcome outcome = audit_workload(picked[t], w);
      results[t].report.merge(outcome.report);
      ++results[t].workloads;
      if (!outcome.matches_ok) ++results[t].mismatches;
    }
  }
  return results;
}

}  // namespace acgpu::gpucheck
