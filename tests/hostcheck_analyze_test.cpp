// Analyzer unit tests on hand-built traces: one per hazard kind, plus the
// happens-before semantics (stream FIFO, event edges, sim scoping) that
// decide whether a conflicting pair is ordered, and the report plumbing
// (exemplar cap, merge, JSON shape).
#include "hostcheck/analyze.h"

#include <gtest/gtest.h>

#include <sstream>

#include "hostcheck/recorder.h"
#include "telemetry/json.h"

namespace acgpu::hostcheck {
namespace {

using gpusim::HostAccessRecord;
using gpusim::HostEventRecord;
using gpusim::HostLockRecord;
using gpusim::HostOpKind;
using gpusim::HostOpRecord;
using gpusim::HostWaitEventRecord;

/// Builder for hand-made traces: op ids are assigned in call order.
struct TraceBuilder {
  HostTrace trace;
  std::uint64_t next_op = 0;

  TraceBuilder() { trace.sims = 1; }

  std::uint64_t op(std::uint32_t stream, HostOpKind kind, double start,
                   double end) {
    const std::uint64_t id = next_op++;
    trace.records.push_back(HostOpRecord{0, id, stream, kind, start, end, 0, ""});
    return id;
  }
  void access(std::uint64_t op, std::uint64_t addr, std::uint64_t bytes,
              bool is_write) {
    trace.records.push_back(HostAccessRecord{0, op, addr, bytes, is_write});
  }
  void event(std::uint32_t event, std::uint32_t stream) {
    trace.records.push_back(HostEventRecord{0, event, stream, 0.0});
  }
  void wait_event(std::uint32_t stream, std::uint32_t event) {
    trace.records.push_back(HostWaitEventRecord{0, stream, event});
  }
};

TEST(HostcheckAnalyze, EmptyTraceIsClean) {
  const HostAuditReport report = analyze(HostTrace{});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_hazards(), 0u);
}

TEST(HostcheckAnalyze, SameStreamConflictIsOrdered) {
  TraceBuilder b;
  const auto w = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto r = b.op(0, HostOpKind::kKernel, 1.0, 2.0);
  b.access(w, 0x100, 64, true);
  b.access(r, 0x100, 64, false);
  EXPECT_TRUE(analyze(b.trace).clean());  // FIFO edge orders the pair
}

TEST(HostcheckAnalyze, CrossStreamConflictWithoutEdgeIsUploadReuse) {
  TraceBuilder b;
  const auto w = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto r = b.op(1, HostOpKind::kKernel, 0.5, 2.0);
  b.access(w, 0x100, 64, true);
  b.access(r, 0x100, 64, false);
  const HostAuditReport report = analyze(b.trace);
  EXPECT_EQ(report.count(HazardKind::kUploadReuse), 1u);
  ASSERT_EQ(report.hazards.size(), 1u);
  EXPECT_EQ(report.hazards[0].first.op, 0);
  EXPECT_EQ(report.hazards[0].second.op, 1);
}

TEST(HostcheckAnalyze, EventEdgeOrdersCrossStreamConflict) {
  TraceBuilder b;
  const auto w = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  b.event(0, 0);        // captures the H2D
  b.wait_event(1, 0);   // stream 1's next op starts after it
  const auto r = b.op(1, HostOpKind::kKernel, 1.0, 2.0);
  b.access(w, 0x100, 64, true);
  b.access(r, 0x100, 64, false);
  EXPECT_TRUE(analyze(b.trace).clean());
}

TEST(HostcheckAnalyze, D2HInvolvedConflictClassifiesAsWriteDuringD2H) {
  TraceBuilder b;
  const auto d = b.op(0, HostOpKind::kD2H, 0.0, 1.0);
  const auto w = b.op(1, HostOpKind::kH2D, 0.0, 1.0);
  b.access(d, 0x200, 128, false);
  b.access(w, 0x200, 128, true);
  EXPECT_EQ(analyze(b.trace).count(HazardKind::kWriteDuringD2H), 1u);
}

TEST(HostcheckAnalyze, ReadOnlyOverlapIsNotAConflict) {
  TraceBuilder b;
  const auto a = b.op(0, HostOpKind::kKernel, 0.0, 1.0);
  const auto c = b.op(1, HostOpKind::kKernel, 0.0, 1.0);
  b.access(a, 0x100, 64, false);
  b.access(c, 0x100, 64, false);
  EXPECT_TRUE(analyze(b.trace).clean());
}

TEST(HostcheckAnalyze, DisjointRangesAreNotAConflict) {
  TraceBuilder b;
  const auto a = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto c = b.op(1, HostOpKind::kKernel, 0.0, 1.0);
  b.access(a, 0x100, 64, true);
  b.access(c, 0x140, 64, false);  // begins exactly where a's range ends
  EXPECT_TRUE(analyze(b.trace).clean());
}

TEST(HostcheckAnalyze, ConcurrentSimsWithOverlappingOffsetsDoNotCrossAttribute) {
  // Two cluster shards: each device's arena starts at offset 0, so both
  // shards' upload buffers occupy the SAME offset range while both are
  // live. Two writes of that range on different streams conflict within one
  // sim, but the same writes from two sims are on different devices and
  // are never compared.
  TraceBuilder one_sim;
  const auto x = one_sim.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto y = one_sim.op(1, HostOpKind::kH2D, 0.0, 1.0);
  one_sim.access(x, 0x100, 64, true);
  one_sim.access(y, 0x100, 64, true);
  EXPECT_EQ(analyze(one_sim.trace).count(HazardKind::kUnorderedConflict), 1u);

  HostTrace two_sims;
  two_sims.sims = 2;
  for (std::uint32_t sim = 0; sim < 2; ++sim) {
    two_sims.records.push_back(
        HostOpRecord{sim, 0, sim, HostOpKind::kH2D, 0.0, 1.0, 64, ""});
    two_sims.records.push_back(HostAccessRecord{sim, 0, 0x100, 64, true});
  }
  const HostAuditReport report = analyze(two_sims);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.ops, 2u);
  EXPECT_EQ(report.accesses, 2u);
}

TEST(HostcheckAnalyze, LockOrderCycleDetected) {
  Recorder rec;
  const std::uint32_t a = rec.register_mutex("serve.mu");
  const std::uint32_t c = rec.register_mutex("serve.scheduler.mu");
  rec.on_lock(HostLockRecord{1, a, true});
  rec.on_lock(HostLockRecord{1, c, true});
  rec.on_lock(HostLockRecord{1, c, false});
  rec.on_lock(HostLockRecord{1, a, false});
  rec.on_lock(HostLockRecord{2, c, true});
  rec.on_lock(HostLockRecord{2, a, true});
  rec.on_lock(HostLockRecord{2, a, false});
  rec.on_lock(HostLockRecord{2, c, false});
  const HostAuditReport report = analyze(rec.trace());
  EXPECT_EQ(report.count(HazardKind::kLockOrderCycle), 1u);
  ASSERT_EQ(report.hazards.size(), 1u);
  // The cycle closes back on its anchor: serve.mu -> scheduler -> serve.mu.
  ASSERT_EQ(report.hazards[0].cycle.size(), 3u);
  EXPECT_EQ(report.hazards[0].cycle.front(), "serve.mu");
  EXPECT_EQ(report.hazards[0].cycle.back(), "serve.mu");
}

TEST(HostcheckAnalyze, ConsistentLockOrderIsClean) {
  Recorder rec;
  const std::uint32_t a = rec.register_mutex("serve.mu");
  const std::uint32_t c = rec.register_mutex("serve.scheduler.mu");
  for (const std::uint64_t thread : {1u, 2u, 3u}) {
    rec.on_lock(HostLockRecord{thread, a, true});
    rec.on_lock(HostLockRecord{thread, c, true});
    rec.on_lock(HostLockRecord{thread, c, false});
    rec.on_lock(HostLockRecord{thread, a, false});
  }
  const HostAuditReport report = analyze(rec.trace());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.lock_edges, 1u);
  EXPECT_EQ(report.lock_events, 12u);
}

TEST(HostcheckAnalyze, ExemplarCapKeepsCounting) {
  TraceBuilder b;
  // 4 unordered writer pairs to the same range across two streams.
  for (int i = 0; i < 4; ++i) {
    const auto x = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
    const auto y = b.op(1, HostOpKind::kH2D, 0.0, 1.0);
    b.access(x, 0x100 + 0x1000 * i, 64, true);
    b.access(y, 0x100 + 0x1000 * i, 64, true);
  }
  AnalyzeOptions options;
  options.max_hazards = 2;
  const HostAuditReport report = analyze(b.trace, options);
  EXPECT_EQ(report.hazards.size(), 2u);
  EXPECT_EQ(report.dropped_hazards, 2u);
  EXPECT_EQ(report.count(HazardKind::kUnorderedConflict), 4u);
  EXPECT_EQ(report.total_hazards(), 4u);
}

TEST(HostcheckAnalyze, MergeFoldsCountsAndRespectsCap) {
  TraceBuilder b;
  const auto x = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto y = b.op(1, HostOpKind::kKernel, 0.0, 1.0);
  b.access(x, 0x100, 64, true);
  b.access(y, 0x100, 64, false);
  const HostAuditReport one = analyze(b.trace);
  ASSERT_EQ(one.total_hazards(), 1u);

  HostAuditReport merged;
  merged.merge(one, /*max_hazards=*/1);
  merged.merge(one, /*max_hazards=*/1);
  EXPECT_EQ(merged.count(HazardKind::kUploadReuse), 2u);
  EXPECT_EQ(merged.hazards.size(), 1u);  // capped exemplars
  EXPECT_EQ(merged.dropped_hazards, 1u);
  EXPECT_EQ(merged.ops, 2u * one.ops);
}

TEST(HostcheckAnalyze, JsonReportParsesAndCarriesTheHazard) {
  TraceBuilder b;
  const auto x = b.op(0, HostOpKind::kH2D, 0.0, 1.0);
  const auto y = b.op(1, HostOpKind::kKernel, 0.0, 1.0);
  b.access(x, 0x100, 64, true);
  b.access(y, 0x100, 64, false);
  std::ostringstream out;
  analyze(b.trace).write_json(out);

  const auto json = telemetry::parse_json(out.str());
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->find("clean")->boolean(), false);
  EXPECT_EQ(json->number_at("total_hazards"), 1.0);
  const telemetry::JsonValue* hazards = json->find("hazards");
  ASSERT_TRUE(hazards != nullptr && hazards->is_array());
  ASSERT_EQ(hazards->array().size(), 1u);
  const telemetry::JsonValue& h = hazards->array()[0];
  EXPECT_EQ(h.find("kind")->string(), "upload-reuse");
  EXPECT_EQ(h.find("first")->number_at("op"), 0.0);
  EXPECT_EQ(h.find("second")->number_at("op"), 1.0);
  EXPECT_EQ(json->find("telemetry")->number_at("hostcheck.hazards"), 1.0);
}

}  // namespace
}  // namespace acgpu::hostcheck
