// End-to-end audit tests: the REAL pipeline and serve layers, driven under
// the Recorder over oracle workloads, must be hazard-free at every stream
// count — each batch stages into its own stream's upload buffer, so stream
// order puts every upload after the kernel that last read the buffer, and
// the audit proves it (the broken-schedule tests prove the auditor is not
// simply blind).
#include "hostcheck/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "hostcheck/analyze.h"
#include "hostcheck/recorder.h"
#include "kernels/packed_text.h"
#include "oracle/workload_gen.h"
#include "pipeline/engine.h"
#include "pipeline/pipeline.h"
#include "telemetry/metrics_registry.h"
#include "workload/dna.h"

namespace acgpu::hostcheck {
namespace {

oracle::CompiledWorkload workload(std::uint64_t seed, std::uint64_t i) {
  return oracle::CompiledWorkload(oracle::generate_workload(seed, i));
}

TEST(HostcheckAudit, ConfigNamesRoundTrip) {
  EXPECT_EQ(to_string(HostAuditConfig{2}), "s2");
  EXPECT_EQ(to_string(HostAuditConfig{8}), "s8");
  EXPECT_EQ(default_config_matrix().size(), 4u);
}

TEST(HostcheckAudit, ConformantPipelineAuditsCleanAcrossGeometries) {
  // audit_pipeline splits every text into at least streams + 2 batches, so
  // each config rewrites its upload buffers and a buffer handed to a
  // different stream would surface as upload-reuse.
  const oracle::CompiledWorkload w(oracle::generate_workload(11, 0));
  ASSERT_GE(w.text().size(), 10u);
  for (const HostAuditConfig& config : default_config_matrix()) {
    const HostAuditOutcome outcome = audit_pipeline(w, config);
    EXPECT_TRUE(outcome.report.clean())
        << to_string(config) << ": " << outcome.report.total_hazards()
        << " hazard(s)";
    EXPECT_TRUE(outcome.matches_ok) << to_string(config);
    // The audit saw real work: an H2D, a kernel and a D2H per batch, and
    // an annotated write and read of each batch's staged slice.
    EXPECT_EQ(outcome.report.ops % 3, 0u) << to_string(config);
    EXPECT_GE(outcome.report.ops / 3, config.streams + 2u) << to_string(config);
    EXPECT_EQ(outcome.report.accesses, 2 * outcome.report.ops / 3)
        << to_string(config);
  }
}

TEST(HostcheckAudit, RepeatedScansOnOneEngineStayClean) {
  // Back-to-back scans recycle the device arena, so the second scan's upload
  // buffers land on the first scan's addresses. Each scan is its own sim,
  // and the analyzer never compares accesses across sims.
  const oracle::CompiledWorkload w = workload(13, 1);
  Recorder recorder;
  EngineOptions eo;
  eo.batch_bytes = 1024;
  eo.match_capacity = 4096;
  DeviceOptions dopt;
  dopt.host_observer = &recorder;
  Result<Device> device = Device::create(dopt);
  ASSERT_TRUE(device.is_ok()) << device.status().message();
  Result<Engine> engine = Engine::create(device.value(), w.patterns(), eo);
  ASSERT_TRUE(engine.is_ok()) << engine.status().message();
  for (int scan = 0; scan < 3; ++scan)
    ASSERT_TRUE(engine.value().scan(w.text()).is_ok());
  const HostAuditReport report = analyze(recorder.trace());
  EXPECT_TRUE(report.clean()) << report.total_hazards() << " hazard(s)";
  EXPECT_EQ(report.sims, 3u);
}

TEST(HostcheckAudit, PipelineAuditAnalysesTheEngineTeardown) {
  // ~Engine takes the device's scan mutex to return its upload. The audit
  // analyses its trace once the engine and device are gone, so that lock is
  // part of the audited schedule: replay the run by hand and count the lock
  // events before and after the drop.
  const oracle::CompiledWorkload w = workload(11, 0);
  const HostAuditConfig config{2};
  Recorder recorder;
  std::uint64_t before_drop = 0;
  {
    DeviceOptions dopt;
    dopt.host_observer = &recorder;
    Result<Device> device = Device::create(dopt);
    ASSERT_TRUE(device.is_ok()) << device.status().message();
    EngineOptions eo;
    eo.streams = config.streams;
    eo.batch_bytes = HostAuditSpec{}.batch_bytes;
    Result<Engine> engine = Engine::create(device.value(), w.patterns(), eo);
    ASSERT_TRUE(engine.is_ok()) << engine.status().message();
    ASSERT_TRUE(engine.value().scan(w.text()).is_ok());
    before_drop = analyze(recorder.trace()).lock_events;
  }
  const std::uint64_t after_drop = analyze(recorder.trace()).lock_events;
  EXPECT_EQ(after_drop, before_drop + 2);  // the drop's acquire and release
  EXPECT_EQ(audit_pipeline(w, config).report.lock_events, after_drop);
}

TEST(HostcheckAudit, PackedBatchesAnnotateTheBytesThatMoved) {
  // DNA text whose batch 2 owns an N: batches 1 and 2 ship 6-bit codes
  // (batch 1 carries the N), the rest ship 2-bit packed payloads. Each
  // batch's H2D write and kernel read must cover exactly its staged payload,
  // so the audit checks the bytes that crossed PCIe, not the slice length.
  std::string text = workload::make_dna_sequence(4096, 29);
  text[2048 + 3] = 'N';
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({text.substr(1000, 8), "ACGTA"}), 8);

  Recorder recorder;
  gpusim::DeviceMemory mem(16u << 20);
  const kernels::DeviceDfa ddfa(mem, dfa);
  pipeline::PipelineOptions opt;
  opt.batch_bytes = 1024;  // 4 KB splits evenly into four 1 KB batches
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;
  auto run = pipeline::MatchPipeline(cfg, mem, ddfa, opt, &recorder).run(text);
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  const std::vector<pipeline::BatchTrace>& batches = run.value().batches;
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches[0].staged_bytes, kernels::packed_size(1024 + 7, 2));
  EXPECT_EQ(batches[1].staged_bytes, kernels::packed_size(1024 + 7, 6));
  EXPECT_EQ(batches[2].staged_bytes, kernels::packed_size(1024 + 7, 6));
  EXPECT_EQ(batches[3].staged_bytes, kernels::packed_size(1024, 2));

  const HostTrace trace = recorder.trace();
  std::map<std::uint64_t, std::string> labels;  // op id -> "h2d b1", ...
  for (const HostTrace::Record& r : trace.records)
    if (const auto* op = std::get_if<gpusim::HostOpRecord>(&r)) labels[op->op] = op->label;
  std::size_t checked = 0;
  for (const HostTrace::Record& r : trace.records) {
    const auto* access = std::get_if<gpusim::HostAccessRecord>(&r);
    if (access == nullptr) continue;
    const std::string& label = labels.at(access->op);
    const std::size_t b = std::stoul(label.substr(label.find(" b") + 2));
    EXPECT_EQ(access->bytes, batches.at(b).staged_bytes) << label;
    ++checked;
  }
  EXPECT_EQ(checked, 2 * batches.size());  // one H2D write, one kernel read each
  const HostAuditReport report = analyze(trace);
  EXPECT_TRUE(report.clean()) << report.total_hazards() << " hazard(s)";
}

TEST(HostcheckAudit, ServeLayerAuditsCleanAndExercisesTheLocks) {
  const HostAuditOutcome outcome = audit_serve(workload(11, 2));
  EXPECT_TRUE(outcome.report.clean())
      << outcome.report.total_hazards() << " hazard(s)";
  EXPECT_TRUE(outcome.matches_ok);
  // The tracked serve/scheduler/session-manager mutexes really recorded:
  // lock events happened and nesting produced order edges — with no cycle.
  EXPECT_GT(outcome.report.lock_events, 0u);
  EXPECT_GT(outcome.report.mutexes, 0u);
  EXPECT_GT(outcome.report.lock_edges, 0u);
  EXPECT_EQ(outcome.report.count(HazardKind::kLockOrderCycle), 0u);
}

TEST(HostcheckAudit, SweepMergesAcrossWorkloadsAndIncludesServe) {
  const std::vector<HostAuditConfig> configs = {HostAuditConfig{2}};
  const std::vector<HostSweepResult> results =
      audit_conformance(/*seed=*/11, /*iterations=*/2, configs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "pipeline s2");
  EXPECT_EQ(results[1].name, "serve");
  for (const HostSweepResult& r : results) {
    EXPECT_EQ(r.workloads, 2u) << r.name;
    EXPECT_EQ(r.mismatches, 0u) << r.name;
    EXPECT_TRUE(r.report.clean()) << r.name;
  }
}

TEST(HostcheckAudit, PublishesHostcheckSeries) {
  const HostAuditOutcome outcome =
      audit_pipeline(workload(11, 0), HostAuditConfig{2});
  telemetry::MetricsRegistry registry;
  publish(outcome.report, registry);
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.value("hostcheck.hazards").has_value());
  EXPECT_EQ(snapshot.value("hostcheck.hazards"), 0.0);
  EXPECT_TRUE(snapshot.value("hostcheck.ops").has_value());
  EXPECT_TRUE(snapshot.value("hostcheck.hazard.upload_reuse").has_value());
}

}  // namespace
}  // namespace acgpu::hostcheck
