// Scheduler admission control, superbatch coalescing, and the scan_batch
// partition filter that keeps concatenated sessions' matches apart.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/pattern_set.h"
#include "ac/serial_matcher.h"

namespace acgpu::serve {
namespace {

SchedulerOptions tiny(std::uint32_t chunks, std::uint64_t bytes,
                      std::uint64_t coalesce) {
  SchedulerOptions opt;
  opt.max_queue_chunks = chunks;
  opt.max_queue_bytes = bytes;
  opt.coalesce_bytes = coalesce;
  return opt;
}

PendingChunk chunk(SessionId session, std::uint64_t base, std::string bytes) {
  return PendingChunk{session, base, std::move(bytes), {}};
}

TEST(ServeScheduler, ChunkCountCapAnswersOverloaded) {
  Scheduler s(tiny(2, 1 << 20, 1 << 20));
  EXPECT_TRUE(s.admit(chunk(1, 0, "aa")).is_ok());
  EXPECT_TRUE(s.admit(chunk(1, 2, "bb")).is_ok());
  const Status full = s.admission(1);
  EXPECT_EQ(full.code(), StatusCode::kOverloaded);
  EXPECT_EQ(s.admit(chunk(1, 4, "cc")).code(), StatusCode::kOverloaded);
  EXPECT_EQ(s.queued_chunks(), 2u);
}

TEST(ServeScheduler, ByteCapAnswersOverloaded) {
  Scheduler s(tiny(64, 8, 1 << 20));
  EXPECT_TRUE(s.admit(chunk(1, 0, "123456")).is_ok());
  EXPECT_EQ(s.admission(3).code(), StatusCode::kOverloaded);  // 6 + 3 > 8
  EXPECT_TRUE(s.admission(2).is_ok());
}

TEST(ServeScheduler, OversizedChunkOnlyAdmittedIntoEmptyQueue) {
  Scheduler s(tiny(64, 8, 1 << 20));
  // Bigger than the whole byte budget: rejecting it forever would wedge the
  // producer, so an empty queue takes it.
  EXPECT_TRUE(s.admission(100).is_ok());
  EXPECT_TRUE(s.admit(chunk(1, 0, std::string(100, 'x'))).is_ok());
  // But with anything queued it must wait.
  EXPECT_EQ(s.admission(100).code(), StatusCode::kOverloaded);
  s.take_batch();
  EXPECT_TRUE(s.admit(chunk(1, 0, "ab")).is_ok());
  EXPECT_EQ(s.admission(100).code(), StatusCode::kOverloaded);
}

TEST(ServeScheduler, EmptyChunksAcceptedAndDropped) {
  Scheduler s(tiny(4, 64, 64));
  EXPECT_TRUE(s.admit(chunk(1, 0, "")).is_ok());
  EXPECT_FALSE(s.has_work());
}

TEST(ServeScheduler, TakeBatchCoalescesFifoUpToTarget) {
  Scheduler s(tiny(64, 1 << 20, 8));
  ASSERT_TRUE(s.admit(chunk(1, 0, "aaaa")).is_ok());
  ASSERT_TRUE(s.admit(chunk(2, 100, "bbb")).is_ok());
  ASSERT_TRUE(s.admit(chunk(1, 4, "cc")).is_ok());  // 4+3+2 > 8: next batch

  CoalescedBatch batch = s.take_batch();
  EXPECT_EQ(batch.text, "aaaabbb");
  ASSERT_EQ(batch.spans.size(), 2u);
  EXPECT_EQ(batch.spans[0].session, 1u);
  EXPECT_EQ(batch.spans[0].begin, 0u);
  EXPECT_EQ(batch.spans[0].end, 4u);
  EXPECT_EQ(batch.spans[0].global_base, 0u);
  EXPECT_EQ(batch.spans[1].session, 2u);
  EXPECT_EQ(batch.spans[1].begin, 4u);
  EXPECT_EQ(batch.spans[1].end, 7u);
  EXPECT_EQ(batch.spans[1].global_base, 100u);

  batch = s.take_batch();  // the remainder
  EXPECT_EQ(batch.text, "cc");
  ASSERT_EQ(batch.spans.size(), 1u);
  EXPECT_EQ(batch.spans[0].global_base, 4u);
  EXPECT_FALSE(s.has_work());
  EXPECT_EQ(s.queued_bytes(), 0u);
}

TEST(ServeScheduler, TakeBatchAlwaysTakesAtLeastOneChunk) {
  Scheduler s(tiny(64, 1 << 20, 2));  // coalesce target smaller than chunk
  ASSERT_TRUE(s.admit(chunk(1, 0, "abcdef")).is_ok());
  const CoalescedBatch batch = s.take_batch();
  EXPECT_EQ(batch.text, "abcdef");
}

TEST(ServeScheduler, ForgetDropsOnlyThatSessionsChunks) {
  Scheduler s(tiny(64, 1 << 20, 1 << 20));
  ASSERT_TRUE(s.admit(chunk(1, 0, "aa")).is_ok());
  ASSERT_TRUE(s.admit(chunk(2, 0, "bb")).is_ok());
  ASSERT_TRUE(s.admit(chunk(1, 2, "cc")).is_ok());
  EXPECT_EQ(s.forget(1), 2u);
  EXPECT_EQ(s.queued_chunks(), 1u);
  EXPECT_EQ(s.queued_bytes(), 2u);
  const CoalescedBatch batch = s.take_batch();
  ASSERT_EQ(batch.spans.size(), 1u);
  EXPECT_EQ(batch.spans[0].session, 2u);
}

// ---------------------------------------------------------------------------
// scan_batch: the partition filter and the host-fallback path
// ---------------------------------------------------------------------------

struct ScanFixture {
  ac::PatternSet patterns;
  ac::Dfa dfa;
  Device device;
  Engine engine;

  static EngineOptions options(std::uint32_t match_capacity = 256) {
    EngineOptions opt;
    opt.mode = gpusim::SimMode::Functional;
    opt.threads_per_block = 64;
    opt.match_capacity = match_capacity;
    return opt;
  }

  explicit ScanFixture(const std::vector<std::string>& pats,
                       std::uint32_t match_capacity = 256)
      : patterns(pats),
        dfa(ac::build_dfa(patterns, 8)),
        device([] {
          DeviceOptions dopt;
          dopt.gpu.num_sms = 4;
          dopt.memory_bytes = 64u << 20;
          auto r = Device::create(dopt);
          ACGPU_CHECK(r.is_ok(), r.status().to_string());
          return std::move(r).value();
        }()),
        engine([&] {
          auto r =
              Engine::create(device, patterns, options(match_capacity));
          ACGPU_CHECK(r.is_ok(), r.status().to_string());
          return std::move(r).value();
        }()) {}
};

TEST(ServeScanBatch, RebasesMatchesOntoSessionOffsets) {
  ScanFixture f({"abcd"});
  CoalescedBatch batch;
  batch.text = "xxabcdxx";
  batch.spans = {{7, 0, 8, 1000, {}}};
  const BatchScan scan = scan_batch(f.engine, f.dfa, batch);
  EXPECT_FALSE(scan.host_fallback);
  ASSERT_EQ(scan.matches.size(), 1u);
  EXPECT_EQ(scan.matches[0].session, 7u);
  EXPECT_EQ(scan.matches[0].match.end, 1005u);  // 1000 + local end 5
}

TEST(ServeScanBatch, DropsMatchesFabricatedAcrossAJoint) {
  // Session 1 contributes "xxab", session 2 "cdyy": the concatenation
  // contains "abcd", but no session's stream does — the filter must kill it.
  ScanFixture f({"abcd"});
  CoalescedBatch batch;
  batch.text = "xxabcdyy";
  batch.spans = {{1, 0, 4, 0, {}}, {2, 4, 8, 0, {}}};
  const BatchScan scan = scan_batch(f.engine, f.dfa, batch);
  EXPECT_TRUE(scan.matches.empty());
}

TEST(ServeScanBatch, DropsSameSessionCrossChunkMatchAlreadyOwnedByContinuation) {
  // Both chunks belong to session 1 and "abcd" spans their joint. The
  // session's boundary continuation reported it at feed time, so the bulk
  // scan must not report it again (exactly-once).
  ScanFixture f({"abcd"});
  CoalescedBatch batch;
  batch.text = "xxabcdyy";
  batch.spans = {{1, 0, 4, 0, {}}, {1, 4, 8, 4, {}}};
  const BatchScan scan = scan_batch(f.engine, f.dfa, batch);
  EXPECT_TRUE(scan.matches.empty());
}

TEST(ServeScanBatch, KeepsContainedMatchesOnBothSidesOfAJoint) {
  ScanFixture f({"ab"});
  CoalescedBatch batch;
  batch.text = "abxxab";
  batch.spans = {{1, 0, 4, 0, {}}, {2, 4, 6, 50, {}}};
  const BatchScan scan = scan_batch(f.engine, f.dfa, batch);
  ASSERT_EQ(scan.matches.size(), 2u);
  EXPECT_EQ(scan.matches[0].session, 1u);
  EXPECT_EQ(scan.matches[0].match.end, 1u);
  EXPECT_EQ(scan.matches[1].session, 2u);
  EXPECT_EQ(scan.matches[1].match.end, 51u);
}

TEST(ServeScanBatch, HostFallbackOnDeviceOverflowIsExact) {
  // An all-'a' text against pattern "a" overflows any small device match
  // buffer; the scheduler then re-scans on the host DFA instead of dropping.
  ScanFixture f({"a"}, /*match_capacity=*/1);
  CoalescedBatch batch;
  batch.text = std::string(4096, 'a');
  batch.spans = {{3, 0, 4096, 0, {}}};
  const BatchScan scan = scan_batch(f.engine, f.dfa, batch);
  EXPECT_TRUE(scan.host_fallback);
  ASSERT_EQ(scan.matches.size(), 4096u);
  EXPECT_EQ(scan.matches[0].match.end, 0u);
  EXPECT_EQ(scan.matches.back().match.end, 4095u);
}

TEST(ServeScanBatch, EmptyBatchScansToNothing) {
  ScanFixture f({"a"});
  const BatchScan scan = scan_batch(f.engine, f.dfa, CoalescedBatch{});
  EXPECT_TRUE(scan.matches.empty());
  EXPECT_FALSE(scan.host_fallback);
}

TEST(ServeSchedulerOptions, ValidationRejectsZeroBounds) {
  EXPECT_FALSE(tiny(0, 1, 1).validate().is_ok());
  EXPECT_FALSE(tiny(1, 0, 1).validate().is_ok());
  EXPECT_FALSE(tiny(1, 1, 0).validate().is_ok());
  EXPECT_TRUE(tiny(1, 1, 1).validate().is_ok());
}

}  // namespace
}  // namespace acgpu::serve
