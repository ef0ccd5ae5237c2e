// True-positive coverage for the hazard recorder: every analyzer must fire —
// with actionable thread/address context — on a deliberately-broken kernel,
// and stay quiet on the corrected twin.
#include "gpucheck/recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "gpucheck/audit.h"
#include "gpusim/launcher.h"

namespace acgpu::gpucheck {
namespace {

using gpusim::DevAddr;
using gpusim::DeviceMemory;
using gpusim::GpuConfig;
using gpusim::LaunchDims;
using gpusim::LaunchOptions;
using gpusim::Warp;
using gpusim::WarpTask;

GpuConfig small_config() {
  GpuConfig cfg = GpuConfig::gtx285();
  cfg.num_sms = 2;
  return cfg;
}

/// Launches `kernel` under a fresh Recorder and returns its report.
template <typename Kernel>
AuditReport record(const LaunchDims& dims, DeviceMemory& mem, Kernel&& kernel,
                   const gpusim::Texture2D* tex = nullptr) {
  Recorder recorder;
  LaunchOptions options;
  options.mode = gpusim::SimMode::Functional;
  options.observer = &recorder;
  gpusim::launch(small_config(), mem, tex, dims, kernel, options);
  return recorder.take_report();
}

// --- shared-memory races ----------------------------------------------------

TEST(GpucheckRecorder, SameInstructionConflictingStoresAreARace) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        // Lanes 0 and 1 both store shared word 0: two threads, same bytes,
        // no barrier in between.
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l < 2 ? 0 : l * 4;
          w.value[l] = l;
        }
        co_await w.shared_store_u32();
      });
  ASSERT_EQ(report.count(HazardKind::kSharedRace), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.kind, HazardKind::kSharedRace);
  EXPECT_EQ(h.first.thread, 0);
  EXPECT_EQ(h.second.thread, 1);
  EXPECT_TRUE(h.second.is_store);
  EXPECT_NE(h.message.find("thread 0"), std::string::npos);
  EXPECT_NE(h.message.find("thread 1"), std::string::npos);
}

TEST(GpucheckRecorder, MissingBarrierMakesAStoreLoadRace) {
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(256);
  // Warp 0 stages a shared word; warp 1 reads it back with NO intervening
  // __syncthreads — the classic staging bug the diagonal kernels must avoid.
  const AuditReport report =
      record(LaunchDims{1, 64, 256}, mem, [=](Warp& w) -> WarpTask {
        if (w.warp_in_block == 0) {
          w.mask_none();
          w.mask[0] = true;
          w.addr[0] = 0;
          w.value[0] = 7;
          co_await w.shared_store_u32();
        } else {
          w.mask_none();
          w.mask[0] = true;
          w.addr[0] = 0;
          co_await w.shared_load_u32();
          w.addr[0] = out;
          co_await w.global_store_u32();
        }
        w.mask_all();
        co_await w.barrier();
      });
  ASSERT_GE(report.count(HazardKind::kSharedRace), 1u);
  bool found = false;
  for (const Hazard& h : report.hazards) {
    if (h.kind != HazardKind::kSharedRace) continue;
    // Warp 0's store (thread 0) races warp 1's load (thread 32); either may
    // be observed first, but both sites must carry their thread identity.
    const auto lo = std::min(h.first.thread, h.second.thread);
    const auto hi = std::max(h.first.thread, h.second.thread);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 32);
    EXPECT_EQ(h.first.epoch, h.second.epoch);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GpucheckRecorder, BarrierSeparatedStagingIsClean) {
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(256);
  const AuditReport report =
      record(LaunchDims{1, 64, 256}, mem, [=](Warp& w) -> WarpTask {
        if (w.warp_in_block == 0) {
          w.mask_none();
          w.mask[0] = true;
          w.addr[0] = 0;
          w.value[0] = 7;
          co_await w.shared_store_u32();
        }
        w.mask_all();
        co_await w.barrier();
        if (w.warp_in_block == 1) {
          w.mask_none();
          w.mask[0] = true;
          w.addr[0] = 0;
          co_await w.shared_load_u32();
          w.addr[0] = out;
          co_await w.global_store_u32();
        }
      });
  EXPECT_TRUE(report.clean()) << "unexpected hazards in the corrected kernel";
  EXPECT_EQ(mem.load_u32(out), 7u);
}

TEST(GpucheckRecorder, LanesOfOneWarpExchangeThroughSharedWithoutABarrier) {
  // The 6-bit staging's exchange: lanes store words, other lanes of the same
  // warp read them in a later instruction, and the first lanes store again.
  // A warp's lanes run in lockstep, so its instructions are ordered and
  // nothing races; a second warp touching the same words without a barrier
  // still does.
  const auto exchange = [](bool second_warp_reads) {
    DeviceMemory mem(4096);
    return record(LaunchDims{1, 64, 256}, mem, [=](Warp& w) -> WarpTask {
      if (w.warp_in_block == 0) {
        for (int round = 0; round < 2; ++round) {
          w.mask_none();
          for (std::uint32_t l = 0; l < 24; ++l) {
            w.mask[l] = true;
            w.addr[l] = 4 * l;
            w.value[l] = l + 100u * round;
          }
          co_await w.shared_store_u32();
          w.mask_all();
          for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = 3 * l / 4 * 4;
          co_await w.shared_load_u32();
        }
      } else if (second_warp_reads) {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = 4 * (l % 24);
        co_await w.compute(64);  // after warp 0's stores, still no barrier
        co_await w.shared_load_u32();
      }
      w.mask_all();
      co_await w.barrier();
    });
  };
  const AuditReport one_warp = exchange(false);
  EXPECT_TRUE(one_warp.clean()) << one_warp.count(HazardKind::kSharedRace) << " race(s)";
  EXPECT_GE(exchange(true).count(HazardKind::kSharedRace), 1u);
}

TEST(GpucheckRecorder, WriteAfterReadInSameEpochIsARace) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 64, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = true;
        w.addr[0] = 0;
        if (w.warp_in_block == 0) {
          co_await w.shared_load_u32();
        } else {
          w.value[0] = 9;
          co_await w.shared_store_u32();
        }
        w.mask_all();
        co_await w.barrier();
      });
  // Thread 0 reads while thread 32 writes the same word in epoch 0 (the
  // read also trips the uninitialized-shared analyzer — both are real).
  EXPECT_GE(report.count(HazardKind::kSharedRace) +
                report.count(HazardKind::kUninitSharedRead),
            1u);
}

// --- barrier divergence -----------------------------------------------------

TEST(GpucheckRecorder, WarpSkippingABarrierIsReportedAndReleased) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 64, 0}, mem, [](Warp& w) -> WarpTask {
        if (w.warp_in_block == 0) {
          w.mask_all();
          co_await w.barrier();  // warp 1 never arrives
        }
        co_await w.compute(1);
      });
  ASSERT_GE(report.count(HazardKind::kBarrierDivergence), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.kind, HazardKind::kBarrierDivergence);
  EXPECT_NE(h.message.find("warp 1"), std::string::npos);
  EXPECT_NE(h.message.find("without reaching"), std::string::npos);
}

TEST(GpucheckRecorder, UnequalBarrierCountsAreReportedAtBlockEnd) {
  DeviceMemory mem(4096);
  // Both warps meet at the first barrier; warp 0 then computes for a long
  // time before its second barrier, so warp 1 has already exited when warp 0
  // arrives — only the retire-time arrival-count cross-check can see it.
  const AuditReport report =
      record(LaunchDims{1, 64, 0}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        co_await w.barrier();
        if (w.warp_in_block == 0) {
          co_await w.compute(500);
          co_await w.barrier();
        }
      });
  ASSERT_GE(report.count(HazardKind::kBarrierDivergence), 1u);
  bool found = false;
  for (const Hazard& h : report.hazards)
    if (h.message.find("unequal barrier counts") != std::string::npos)
      found = true;
  EXPECT_TRUE(found) << "expected the arrival-count cross-check to fire";
}

// --- out-of-bounds ----------------------------------------------------------

TEST(GpucheckRecorder, SharedOffByOneOverlapIsCaughtAndSuppressed) {
  DeviceMemory mem(4096);
  // A 256-byte staged region; lane 31's 4-byte store starts at byte 254 —
  // the off-by-one overlap bug (two bytes land past the region).
  const AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l < 31 ? l * 8 : 254;
          w.value[l] = l;
        }
        co_await w.shared_store_u32();
        co_await w.compute(1);
      });
  ASSERT_EQ(report.count(HazardKind::kSharedOutOfBounds), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.first.thread, 31);
  EXPECT_EQ(h.first.addr, 254u);
  EXPECT_NE(h.message.find("256-byte"), std::string::npos);
}

TEST(GpucheckRecorder, GlobalOutOfBoundsLoadReadsZeroAndContinues) {
  DeviceMemory mem(4096);
  const DevAddr buf = mem.alloc(128);
  const DevAddr out = mem.alloc(128);
  mem.store_u32(buf, 41);
  const gpusim::DevAddr oob = mem.allocated() + 64;  // past every allocation
  const AuditReport report =
      record(LaunchDims{1, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = w.mask[1] = true;
        w.addr[0] = buf;
        w.addr[1] = oob;
        co_await w.global_load_u32();
        const std::uint32_t v0 = w.value[0], v1 = w.value[1];
        w.mask_none();
        w.mask[0] = w.mask[1] = true;
        w.addr[0] = out;
        w.addr[1] = out + 4;
        w.value[0] = v0 + 1;
        w.value[1] = v1 + 1;
        co_await w.global_store_u32();
      });
  ASSERT_EQ(report.count(HazardKind::kGlobalOutOfBounds), 1u);
  EXPECT_EQ(report.hazards.at(0).first.thread, 1);
  EXPECT_EQ(mem.load_u32(out), 42u);  // lane 0 unaffected
  EXPECT_EQ(mem.load_u32(out + 4), 1u);  // suppressed load produced 0
}

TEST(GpucheckRecorder, GlobalU16StorePastTheAllocationIsCaughtAndSuppressed) {
  DeviceMemory mem(1 << 16);
  const DevAddr out = mem.alloc(128);
  const std::uint64_t limit = mem.allocated();
  const AuditReport report =
      record(LaunchDims{1, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = w.mask[1] = true;
        w.addr[0] = out;        // in bounds
        w.addr[1] = limit - 1;  // its second byte lies past the allocation
        w.value[0] = w.value[1] = 0xbeef;
        co_await w.global_store_u16();
      });
  ASSERT_EQ(report.count(HazardKind::kGlobalOutOfBounds), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.first.thread, 1);
  EXPECT_EQ(h.first.op, gpusim::OpKind::GlobalStoreU16);
  EXPECT_EQ(h.first.width, 2u);
  EXPECT_TRUE(h.first.is_store);
  EXPECT_NE(h.message.find("store of 2 byte(s)"), std::string::npos) << h.message;
  EXPECT_EQ(mem.load_u16(out), 0xbeefu);    // lane 0 unaffected
  EXPECT_EQ(mem.load_u8(limit - 1), 0u);    // suppressed store wrote nothing
}

TEST(GpucheckRecorder, TextureFetchOutsideBindingIsCaught) {
  DeviceMemory mem(1 << 16);
  const DevAddr base = mem.alloc(64 * 4);
  const gpusim::Texture2D tex(&mem, base, 16, 4, 16);
  const AuditReport report = record(
      LaunchDims{1, 32, 0}, mem,
      [](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = true;
        w.tex_x[0] = 16;  // == width: one past the last column
        w.tex_y[0] = 0;
        co_await w.tex_fetch();
      },
      &tex);
  ASSERT_EQ(report.count(HazardKind::kTextureOutOfBounds), 1u);
  EXPECT_NE(report.hazards.at(0).message.find("16x4"), std::string::npos);
}

// --- read-before-write ------------------------------------------------------

TEST(GpucheckRecorder, UninitializedSharedReadIsReported) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = true;
        w.addr[0] = 128;  // nothing ever stored there
        co_await w.shared_load_u32();
        co_await w.compute(1);
      });
  ASSERT_EQ(report.count(HazardKind::kUninitSharedRead), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.first.thread, 0);
  EXPECT_NE(h.message.find("never stored"), std::string::npos);
}

TEST(GpucheckRecorder, StagedThenReadSharedIsNotUninitialized) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l * 4;
          w.value[l] = l;
        }
        co_await w.shared_store_u32();
        w.mask_all();
        co_await w.barrier();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = l * 4;
        co_await w.shared_load_u32();
      });
  EXPECT_EQ(report.count(HazardKind::kUninitSharedRead), 0u);
  EXPECT_TRUE(report.clean());
}

// --- global write races -----------------------------------------------------

TEST(GpucheckRecorder, SameAddressStoresFromTwoThreadsRace) {
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(128);
  const AuditReport report =
      record(LaunchDims{1, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = w.mask[5] = true;
        w.addr[0] = out;
        w.addr[5] = out;  // same word, different thread, no ordering
        w.value[0] = 1;
        w.value[5] = 2;
        co_await w.global_store_u32();
      });
  ASSERT_EQ(report.count(HazardKind::kGlobalWriteRace), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.first.thread, 0);
  EXPECT_EQ(h.second.thread, 5);
}

TEST(GpucheckRecorder, PerThreadOutputSlotsDoNotRace) {
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(256);
  const AuditReport report =
      record(LaunchDims{2, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = out + w.global_thread(l) * 4;
          w.value[l] = l;
        }
        co_await w.global_store_u32();
      });
  EXPECT_EQ(report.count(HazardKind::kGlobalWriteRace), 0u);
}

// --- coalescing lint --------------------------------------------------------

TEST(GpucheckRecorder, StridedStagingLoadTripsTheLintAndBudget) {
  DeviceMemory mem(1 << 20);
  const DevAddr src = mem.alloc(32 * 256);
  AuditReport report =
      record(LaunchDims{1, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          w.addr[l] = src + l * 256;  // one 128 B segment per lane
        co_await w.global_load_u32();
      });
  EXPECT_EQ(report.coalescing.load_requests, 1u);
  EXPECT_EQ(report.coalescing.staging_requests, 1u);
  EXPECT_EQ(report.coalescing.staging_excess, 1u);
  ASSERT_TRUE(report.coalescing.staging_worst.valid());
  EXPECT_EQ(report.coalescing.staging_worst_actual, 32u);
  EXPECT_EQ(report.coalescing.staging_worst_ideal, 1u);

  Budget budget;
  budget.require_coalesced_staging = true;
  apply_budget(report, budget);
  ASSERT_EQ(report.count(HazardKind::kCoalescingExcess), 1u);
  const Hazard& h = report.hazards.at(0);
  EXPECT_EQ(h.kind, HazardKind::kCoalescingExcess);
  EXPECT_EQ(h.first.block, 0u);
  EXPECT_NE(h.message.find("32 vs 1"), std::string::npos);
}

TEST(GpucheckRecorder, UnavoidableSegmentStraddleIsNotExcess) {
  DeviceMemory mem(1 << 20);
  const DevAddr src = mem.alloc(4096);
  const AuditReport report =
      record(LaunchDims{1, 32, 0}, mem, [=](Warp& w) -> WarpTask {
        w.mask_all();
        // Contiguous 32-word window starting 100 bytes into a segment: two
        // transactions, but a contiguous packing can do no better.
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          w.addr[l] = src + 100 + l * 4;
        co_await w.global_load_u32();
      });
  EXPECT_EQ(report.coalescing.excess_requests, 0u);
  EXPECT_EQ(report.coalescing.staging_excess, 0u);
}

// --- bank-conflict budget ---------------------------------------------------

TEST(GpucheckRecorder, SameBankStridesBreakTheDegreeBudget) {
  DeviceMemory mem(4096);
  AuditReport report =
      record(LaunchDims{1, 16, 2048}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l * 64;  // distinct words, all on bank 0
          w.value[l] = l;
        }
        co_await w.shared_store_u32();
        co_await w.compute(1);
      });
  EXPECT_EQ(report.bank.max_degree, 16u);
  EXPECT_EQ(report.bank.conflicted_accesses, 1u);

  Budget budget;
  budget.max_bank_degree = 1;
  apply_budget(report, budget);
  ASSERT_EQ(report.count(HazardKind::kBankConflictBudget), 1u);
  EXPECT_NE(report.hazards.at(0).message.find("degree 16"),
            std::string::npos);
}

TEST(GpucheckRecorder, BroadcastReadsStayWithinTheBudget) {
  DeviceMemory mem(4096);
  AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l * 4;
          w.value[l] = 1;
        }
        co_await w.shared_store_u32();
        w.mask_all();
        co_await w.barrier();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = 0;
        co_await w.shared_load_u32();  // hardware broadcast: degree 1
      });
  EXPECT_LE(report.bank.max_degree, 1u);
  Budget budget;
  budget.max_bank_degree = 1;
  apply_budget(report, budget);
  EXPECT_EQ(report.count(HazardKind::kBankConflictBudget), 0u);
}

TEST(GpucheckRecorder, AbsentExpectedConflictsAreFlagged) {
  DeviceMemory mem(4096);
  AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          w.addr[l] = l * 4;  // conflict-free
          w.value[l] = l;
        }
        co_await w.shared_store_u32();
        co_await w.compute(1);
      });
  Budget budget;
  budget.expect_bank_conflicts = true;
  apply_budget(report, budget);
  ASSERT_EQ(report.count(HazardKind::kBankConflictBudget), 1u);
  EXPECT_NE(report.hazards.at(0).message.find("absent"), std::string::npos);
}

// --- report plumbing --------------------------------------------------------

TEST(GpucheckRecorder, ReportSerializesToJson) {
  DeviceMemory mem(4096);
  const AuditReport report =
      record(LaunchDims{1, 32, 256}, mem, [](Warp& w) -> WarpTask {
        w.mask_none();
        w.mask[0] = true;
        w.addr[0] = 300;  // past the 256-byte region
        w.value[0] = 1;
        co_await w.shared_store_u32();
      });
  std::ostringstream json;
  report.write_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(s.find("\"shared-oob\""), std::string::npos);
  EXPECT_NE(s.find("\"hazards\":["), std::string::npos);

  std::ostringstream text;
  report.write_text(text);
  EXPECT_NE(text.str().find("shared-oob"), std::string::npos);
}

// --- the launch's own geometry ----------------------------------------------

struct GeometryRun {
  AuditReport report;
  gpusim::Metrics metrics;
};

/// One warp loads 128 contiguous global bytes (128 / segment transactions)
/// and stages them into shared words 32 words apart (every lane in one bank
/// on a 16- or 32-bank chip), then reads them back after a barrier.
GeometryRun stage_strided(const GpuConfig& cfg) {
  DeviceMemory mem(4096);
  const DevAddr src = mem.alloc(128);
  Recorder recorder;
  LaunchOptions options;
  options.mode = gpusim::SimMode::Functional;
  options.observer = &recorder;
  const gpusim::LaunchResult launched = gpusim::launch(
      cfg, mem, nullptr, LaunchDims{1, 32, 32 * 128},
      [=](Warp& w) -> WarpTask {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = src + l * 4;
        co_await w.global_load_u32();
        for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = l * 128;
        co_await w.shared_store_u32();
        co_await w.barrier();
        co_await w.shared_load_u32();
      },
      options);
  return {recorder.take_report(), launched.metrics};
}

TEST(GpucheckRecorder, AuditsTheBankAndSegmentGeometryOfTheLaunch) {
  // The Recorder costs accesses on the chip the launch simulates: a chip
  // with 32 banks resolved per full warp and 32-byte segments must audit at
  // the degree and transaction count gpusim charges it, not at the GTX
  // 285's 16 banks, 16-lane groups and 128-byte segments.
  GpuConfig wide = small_config();
  wide.shared_banks = 32;
  wide.shared_conflict_group = 32;
  wide.coalesce_segment_bytes = 32;
  for (const GpuConfig& cfg : {small_config(), wide}) {
    const GeometryRun run = stage_strided(cfg);
    EXPECT_EQ(run.report.bank.max_degree, run.metrics.shared_max_degree);
    EXPECT_EQ(run.report.coalescing.load_transactions,
              run.metrics.global_transactions);
    EXPECT_TRUE(run.report.clean());
  }
  const GeometryRun gt200 = stage_strided(small_config());
  EXPECT_EQ(gt200.report.bank.max_degree, 16u);
  EXPECT_EQ(gt200.report.coalescing.load_transactions, 1u);
  const GeometryRun wide_run = stage_strided(wide);
  EXPECT_EQ(wide_run.report.bank.max_degree, 32u);
  EXPECT_EQ(wide_run.report.coalescing.load_transactions, 4u);
}

TEST(GpucheckRecorder, HazardCapKeepsCountingOccurrences) {
  DeviceMemory mem(4096);
  Recorder recorder(/*max_hazards=*/2);
  LaunchOptions options;
  options.mode = gpusim::SimMode::Functional;
  options.observer = &recorder;
  // Four separate uninitialized loads: 4 occurrences, 2 exemplars kept.
  gpusim::launch(small_config(), mem, nullptr, LaunchDims{1, 32, 256},
                 [](Warp& w) -> WarpTask {
                   for (std::uint32_t i = 0; i < 4; ++i) {
                     w.mask_none();
                     w.mask[0] = true;
                     w.addr[0] = i * 8;
                     co_await w.shared_load_u8();
                   }
                 },
                 options);
  const AuditReport& report = recorder.report();
  EXPECT_EQ(report.count(HazardKind::kUninitSharedRead), 4u);
  EXPECT_EQ(report.hazards.size(), 2u);
  EXPECT_EQ(report.dropped_hazards, 2u);
}

}  // namespace
}  // namespace acgpu::gpucheck
