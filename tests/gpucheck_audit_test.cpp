// Audit-harness coverage: every shipped kernel variant must audit clean and
// conformant over oracle workloads, the diagonal store scheme must hold its
// degree-1 bank budget where the naive scheme provably cannot, and the sweep
// entry point must aggregate per-target results.
#include "gpucheck/audit.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "kernels/device_dfa.h"
#include "kernels/packed_text.h"
#include "oracle/workload_gen.h"
#include "telemetry/json.h"
#include "telemetry/metrics_registry.h"
#include "util/error.h"

namespace acgpu::gpucheck {
namespace {

using oracle::CompiledWorkload;
using oracle::Workload;

/// A workload whose text spans many chunks, so every store scheme runs with
/// full warps and the bank-conflict character of each layout is observable.
CompiledWorkload wide_workload() {
  Workload w;
  w.name = "gpucheck-wide";
  w.patterns = {"abc", "bcd", "dab", "cc", "abcdab"};
  std::string text;
  for (int i = 0; i < 600; ++i) text += "abcdabccdbcdab";
  w.text = std::move(text);
  return CompiledWorkload(std::move(w));
}

TEST(GpucheckAudit, TargetNamesRoundTrip) {
  for (const AuditTarget t : all_audit_targets())
    EXPECT_EQ(audit_target_from_name(to_string(t)), t);
  EXPECT_THROW(audit_target_from_name("no-such-kernel"), Error);
}

TEST(GpucheckAudit, EveryShippedTargetAuditsCleanAndConformant) {
  const CompiledWorkload w = wide_workload();
  for (const AuditTarget t : all_audit_targets()) {
    const AuditOutcome outcome = audit_workload(t, w);
    EXPECT_TRUE(outcome.report.clean())
        << to_string(t) << " reported " << outcome.report.total_hazards()
        << " hazard(s)";
    EXPECT_TRUE(outcome.matches_ok) << to_string(t);
    EXPECT_GT(outcome.match_count, 0u) << to_string(t);
    EXPECT_GT(outcome.report.accesses, 0u) << to_string(t);
  }
}

TEST(GpucheckAudit, OracleWorkloadsAuditClean) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    const CompiledWorkload w(oracle::generate_workload(11, i));
    for (const AuditTarget t :
         {AuditTarget::kAcGlobal, AuditTarget::kAcSharedDiagonal,
          AuditTarget::kCompressed, AuditTarget::kPfac}) {
      const AuditOutcome outcome = audit_workload(t, w);
      EXPECT_TRUE(outcome.report.clean()) << to_string(t) << " workload " << i;
      EXPECT_TRUE(outcome.matches_ok) << to_string(t) << " workload " << i;
    }
  }
}

TEST(GpucheckAudit, DiagonalSchemeAuditsAtDegreeOne) {
  const AuditOutcome outcome =
      audit_workload(AuditTarget::kAcSharedDiagonal, wide_workload());
  EXPECT_TRUE(outcome.report.clean());
  EXPECT_GT(outcome.report.bank.accesses, 0u);
  EXPECT_EQ(outcome.report.bank.max_degree, 1u);
}

TEST(GpucheckAudit, NaiveSchemeConflictsAndBreaksADegreeOneBudget) {
  AuditOutcome outcome =
      audit_workload(AuditTarget::kAcSharedNaive, wide_workload());
  // Its own budget EXPECTS conflicts, so the shipped audit is clean...
  EXPECT_TRUE(outcome.report.clean());
  EXPECT_GT(outcome.report.bank.max_degree, 1u);

  // ...but imposing the diagonal scheme's budget on the same report must
  // fire, with the worst conflicting access site attached.
  Budget diagonal;
  diagonal.max_bank_degree = 1;
  apply_budget(outcome.report, diagonal);
  ASSERT_GE(outcome.report.count(HazardKind::kBankConflictBudget), 1u);
  bool sited = false;
  for (const Hazard& h : outcome.report.hazards)
    if (h.kind == HazardKind::kBankConflictBudget && h.first.valid())
      sited = true;
  EXPECT_TRUE(sited) << "budget hazard should carry the worst access site";
}

TEST(GpucheckAudit, PipelinePackedStagingIsCoalescedStagingAtDegreeOne) {
  // overlap-heavy draws its text from {a, b}, so every batch of the pipeline
  // target ships packed and its staging loads are the packed ones: each
  // lane loads the word holding its packed byte. They must still count as
  // staging loads, coalesce with no excess, and leave the diagonal store at
  // bank degree 1.
  std::uint64_t audited = 0;
  for (std::uint64_t i = 0; audited < 3; ++i) {
    if (std::string(oracle::workload_family_name(i)) != "overlap-heavy") continue;
    const CompiledWorkload w(oracle::generate_workload(42, i));
    ASSERT_TRUE(kernels::symbol_table(w.dfa().classes().map(w.text())))
        << w.name();
    const AuditOutcome outcome = audit_workload(AuditTarget::kPipeline, w);
    EXPECT_TRUE(outcome.report.clean()) << w.name();
    EXPECT_TRUE(outcome.matches_ok) << w.name();
    EXPECT_GT(outcome.report.coalescing.staging_requests, 0u) << w.name();
    EXPECT_EQ(outcome.report.coalescing.staging_excess, 0u) << w.name();
    EXPECT_EQ(outcome.report.bank.max_degree, 1u) << w.name();
    ++audited;
  }
}

TEST(GpucheckAudit, PipelineSixBitStagingIsCoalescedRaceFreeAndAtDegreeOne) {
  // boundary workloads of 5 or 64 distinct bytes ship every batch at 6 bits:
  // each warp loads its 24 packed words in one request, passes them to its
  // lanes through its exchange and decodes through its own table. The loads
  // must coalesce with no excess, the exchange and table must not race, and
  // no shared access may conflict.
  std::uint64_t audited = 0;
  for (std::uint64_t i = 0; audited < 4; ++i) {
    if (std::string(oracle::workload_family_name(i)) != "boundary") continue;
    const CompiledWorkload w(oracle::generate_workload(42, i));
    const std::optional<kernels::SymbolTable> table =
        kernels::symbol_table(w.dfa().classes().map(w.text()));
    if (!table || table->bits() != 6) continue;
    const AuditOutcome outcome = audit_workload(AuditTarget::kPipeline, w);
    EXPECT_TRUE(outcome.report.clean()) << w.name();
    EXPECT_EQ(outcome.report.count(HazardKind::kSharedRace), 0u) << w.name();
    EXPECT_TRUE(outcome.matches_ok) << w.name();
    EXPECT_GT(outcome.report.coalescing.staging_requests, 0u) << w.name();
    EXPECT_EQ(outcome.report.coalescing.staging_excess, 0u) << w.name();
    EXPECT_EQ(outcome.report.bank.max_degree, 1u) << w.name();
    ++audited;
  }
}

TEST(GpucheckAudit, DiagonalReportFailsANaiveExpectation) {
  AuditOutcome outcome =
      audit_workload(AuditTarget::kAcSharedDiagonal, wide_workload());
  Budget naive = target_budget(AuditTarget::kAcSharedNaive);
  apply_budget(outcome.report, naive);
  EXPECT_GE(outcome.report.count(HazardKind::kBankConflictBudget), 1u);
}

TEST(GpucheckAudit, ShippedBudgetsMatchTheStoreSchemeContracts) {
  EXPECT_EQ(target_budget(AuditTarget::kAcSharedDiagonal).max_bank_degree, 1u);
  EXPECT_FALSE(target_budget(AuditTarget::kAcSharedDiagonal).expect_bank_conflicts);
  EXPECT_TRUE(target_budget(AuditTarget::kAcSharedNaive).expect_bank_conflicts);
  EXPECT_EQ(target_budget(AuditTarget::kAcSharedNaive).max_bank_degree, 0u);
  EXPECT_TRUE(target_budget(AuditTarget::kAcSharedDiagonal).require_coalesced_staging);
}

TEST(GpucheckAudit, EmptyTextAuditsCleanEverywhere) {
  Workload w;
  w.name = "gpucheck-empty";
  w.patterns = {"needle"};
  const CompiledWorkload cw(std::move(w));
  for (const AuditTarget t : all_audit_targets()) {
    const AuditOutcome outcome = audit_workload(t, cw);
    EXPECT_TRUE(outcome.report.clean()) << to_string(t);
    EXPECT_TRUE(outcome.matches_ok) << to_string(t);
    EXPECT_EQ(outcome.match_count, 0u) << to_string(t);
  }
}

TEST(GpucheckAudit, ConformanceSweepAggregatesPerTarget) {
  const std::vector<AuditTarget> targets = {AuditTarget::kAcGlobal,
                                            AuditTarget::kPfac};
  const std::vector<SweepTargetResult> results =
      audit_conformance(/*seed=*/5, /*iterations=*/4, targets);
  ASSERT_EQ(results.size(), targets.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].target, targets[i]);
    EXPECT_EQ(results[i].workloads, 4u);
    EXPECT_EQ(results[i].mismatches, 0u);
    EXPECT_TRUE(results[i].report.clean()) << to_string(results[i].target);
  }
}

TEST(GpucheckAudit, SweepDefaultsToAllTargets) {
  const std::vector<SweepTargetResult> results =
      audit_conformance(/*seed=*/7, /*iterations=*/1);
  EXPECT_EQ(results.size(), all_audit_targets().size());
}

// telemetry_series() is the single source of truth for the report's metric
// projection: the registry snapshot, the JSON report's "telemetry" object,
// and the raw report fields must all agree.
TEST(GpucheckAudit, TelemetryProjectionAgreesEverywhere) {
  const AuditOutcome outcome =
      audit_workload(AuditTarget::kAcSharedDiagonal, wide_workload());
  const auto series = telemetry_series(outcome.report);
  ASSERT_FALSE(series.empty());

  const auto at = [&series](const std::string& name) {
    for (const auto& [n, v] : series)
      if (n == name) return v;
    ADD_FAILURE() << "series " << name << " missing";
    return 0.0;
  };
  EXPECT_EQ(at("gpucheck.bank.max_degree"),
            static_cast<double>(outcome.report.bank.max_degree));
  EXPECT_EQ(at("gpucheck.hazards.total"),
            static_cast<double>(outcome.report.total_hazards()));

  telemetry::MetricsRegistry registry;
  publish(outcome.report, registry);
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : series)
    EXPECT_EQ(snap.value(name), value) << name;

  std::ostringstream json;
  outcome.report.write_json(json);
  const std::optional<telemetry::JsonValue> doc =
      telemetry::parse_json(json.str());
  ASSERT_TRUE(doc.has_value()) << "audit JSON must parse";
  const telemetry::JsonValue* embedded = doc->find("telemetry");
  ASSERT_NE(embedded, nullptr);
  for (const auto& [name, value] : series)
    EXPECT_EQ(embedded->number_at(name), value) << name;
}

}  // namespace
}  // namespace acgpu::gpucheck
