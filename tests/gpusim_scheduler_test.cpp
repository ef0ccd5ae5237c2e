#include "gpusim/scheduler.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gpusim/launcher.h"
#include "util/error.h"

namespace acgpu::gpusim {
namespace {

GpuConfig small_config() {
  GpuConfig cfg = GpuConfig::gtx285();
  cfg.num_sms = 2;
  return cfg;
}

TEST(Scheduler, ComputeOnlyKernelCompletes) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{4, 64, 0};
  auto result = launch(cfg, mem, nullptr, dims, [](Warp& w) -> WarpTask {
    co_await w.compute(10);
    co_await w.compute(5);
  });
  EXPECT_GT(result.cycles, 0.0);
  EXPECT_EQ(result.metrics.blocks_completed, 4u);
  EXPECT_EQ(result.metrics.warps_completed, 8u);  // 64 threads = 2 warps/block
  // 15 instructions per warp, 8 warps.
  EXPECT_EQ(result.metrics.warp_instructions, 15u * 8);
}

TEST(Scheduler, GlobalLoadMovesData) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  const DevAddr src = mem.alloc(128);
  const DevAddr dst = mem.alloc(128);
  for (std::uint32_t i = 0; i < 32; ++i) mem.store_u32(src + i * 4, i * 7);

  LaunchDims dims{1, 32, 0};
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = src + l * 4;
    co_await w.global_load_u32();
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      w.addr[l] = dst + l * 4;
      w.value[l] += 1;
    }
    co_await w.global_store_u32();
  });
  for (std::uint32_t i = 0; i < 32; ++i)
    EXPECT_EQ(mem.load_u32(dst + i * 4), i * 7 + 1);
  EXPECT_EQ(result.metrics.global_requests, 2u);
  EXPECT_EQ(result.metrics.global_transactions, 2u);  // both fully coalesced
  // Load latency must appear in the makespan.
  EXPECT_GE(result.cycles, cfg.global_latency_cycles);
}

TEST(Scheduler, UncoalescedLoadCostsMoreTransactions) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(1 << 20);
  const DevAddr src = mem.alloc(32 * 4096);
  LaunchDims dims{1, 32, 0};
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = src + l * 4096;
    co_await w.global_load_u32();
  });
  EXPECT_EQ(result.metrics.global_transactions, 32u);
}

TEST(Scheduler, SharedMemoryThroughBarrier) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(8192);
  const DevAddr out = mem.alloc(512);
  // Two warps per block: warp 0 writes shared, warp 1 reads it after the
  // barrier and stores to global — data must flow across warps.
  LaunchDims dims{1, 64, 1024};
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    if (w.warp_in_block == 0) {
      w.mask_all();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        w.addr[l] = l * 4;
        w.value[l] = 1000 + l;
      }
      co_await w.shared_store_u32();
    }
    co_await w.barrier();
    if (w.warp_in_block == 1) {
      w.mask_all();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = l * 4;
      co_await w.shared_load_u32();
      w.mask_all();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = out + l * 4;
      co_await w.global_store_u32();
    }
  });
  for (std::uint32_t l = 0; l < 32; ++l)
    EXPECT_EQ(mem.load_u32(out + l * 4), 1000 + l);
  EXPECT_EQ(result.metrics.barriers, 2u);  // one arrival per warp
}

TEST(Scheduler, BankConflictsSlowSharedAccess) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{1, 32, 4096};

  auto run_with_stride = [&](std::uint32_t stride_words) {
    return launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
      for (int rep = 0; rep < 50; ++rep) {
        w.mask_all();
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          w.addr[l] = (l * stride_words % 1024) * 4;
        co_await w.shared_load_u32();
      }
    });
  };
  const auto free = run_with_stride(1);    // conflict-free
  const auto bad = run_with_stride(16);    // 16-way conflicts
  EXPECT_EQ(free.metrics.shared_conflict_cycles, 0u);
  EXPECT_GT(bad.metrics.shared_conflict_cycles, 0u);
  EXPECT_GT(bad.cycles, free.cycles * 4);
}

TEST(Scheduler, MaskedLanesDoNotShiftLaterLanesIntoAnotherHalfWarp) {
  // Lanes 8-15 and 24-31 masked; lanes 0-7 read words 0-7 and lanes 16-23
  // words 16-23. Banks are grouped by half-warp lane index, so each
  // half-warp sees 8 distinct banks: conflict-free.
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{1, 32, 4096};
  const auto result = launch(cfg, mem, nullptr, dims, [](Warp& w) -> WarpTask {
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (l % 16 < 8) {
        w.mask[l] = true;
        w.addr[l] = l * 4;
      }
    co_await w.shared_load_u32();
  });
  EXPECT_EQ(result.metrics.shared_requests, 1u);
  EXPECT_EQ(result.metrics.shared_groups, 2u);
  EXPECT_EQ(result.metrics.shared_max_degree, 1u);
  EXPECT_EQ(result.metrics.shared_conflict_cycles, 0u);
}

TEST(Scheduler, TextureFetchesAndCacheCounters) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(1 << 16);
  const DevAddr base = mem.alloc(64 * 64 * 4);
  for (std::uint32_t y = 0; y < 64; ++y)
    for (std::uint32_t x = 0; x < 64; ++x)
      mem.store_i32(base + (y * 64 + x) * 4, static_cast<std::int32_t>(x + y));
  Texture2D tex(&mem, base, 64, 64, 64);
  const DevAddr out = mem.alloc(128);

  LaunchDims dims{1, 32, 0};
  auto result = launch(cfg, mem, &tex, dims, [=](Warp& w) -> WarpTask {
    for (int rep = 0; rep < 4; ++rep) {
      w.mask_all();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        w.tex_x[l] = l;
        w.tex_y[l] = 3;
      }
      co_await w.tex_fetch();
    }
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = out + l * 4;
    co_await w.global_store_u32();
  });
  for (std::uint32_t l = 0; l < 32; ++l)
    EXPECT_EQ(mem.load_u32(out + l * 4), l + 3);
  EXPECT_EQ(result.metrics.tex_requests, 4u);
  EXPECT_EQ(result.metrics.tex_lane_fetches, 4u * 32);
  // 32 texels * 4B = 128 bytes = 4 cache lines; first pass misses, rest hit.
  EXPECT_EQ(result.metrics.tex_misses, 4u);
  EXPECT_GT(result.metrics.tex_hit_rate(), 0.9);
}

TEST(Scheduler, TextureFetchWithoutBindingThrows) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{1, 32, 0};
  EXPECT_THROW(launch(cfg, mem, nullptr, dims,
                      [](Warp& w) -> WarpTask {
                        w.mask_all();
                        co_await w.tex_fetch();
                      }),
               Error);
}

TEST(Scheduler, MismatchedBarrierIsDetected) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{1, 64, 256};  // two warps, only warp 0 hits the barrier
  EXPECT_THROW(launch(cfg, mem, nullptr, dims,
                      [](Warp& w) -> WarpTask {
                        if (w.warp_in_block == 0) co_await w.barrier();
                        co_await w.compute(1);
                      }),
               Error);
}

TEST(Scheduler, KernelExceptionPropagates) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  LaunchDims dims{1, 32, 0};
  EXPECT_THROW(launch(cfg, mem, nullptr, dims,
                      [](Warp& w) -> WarpTask {
                        co_await w.compute(1);
                        throw Error("kernel bug");
                      }),
               Error);
}

TEST(Scheduler, TailWarpHasPartialLanes) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(256);
  LaunchDims dims{1, 40, 0};  // 1 full warp + 8-lane tail warp
  launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      w.addr[l] = out + w.thread_in_block(l) * 4;
      w.value[l] = 1;
    }
    co_await w.global_store_u32();
  });
  std::uint32_t stored = 0;
  for (std::uint32_t t = 0; t < 64; ++t) stored += mem.load_u32(out + t * 4);
  EXPECT_EQ(stored, 40u);
}

TEST(Scheduler, GlobalStoreU16WritesTwoLittleEndianBytes) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(128);
  mem.fill(out, 0xff, 128);
  LaunchDims dims{1, 32, 0};
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      w.addr[l] = out + l * 2;
      w.value[l] = 0xabcd1200u + l;  // only the low 16 bits land
    }
    co_await w.global_store_u16();
  });
  for (std::uint32_t l = 0; l < 32; ++l) {
    EXPECT_EQ(mem.load_u8(out + l * 2), l);
    EXPECT_EQ(mem.load_u8(out + l * 2 + 1), 0x12u);
    EXPECT_EQ(mem.load_u16(out + l * 2), 0x1200u + l);
  }
  EXPECT_EQ(mem.load_u32(out + 64), 0xffffffffu);  // past the warp's 64 B
  EXPECT_EQ(result.metrics.global_requests, 1u);
  EXPECT_EQ(result.metrics.global_transactions, 1u);  // 32 x 2 B, one segment
  EXPECT_EQ(result.metrics.global_bytes, 128u);
}

TEST(Scheduler, GlobalStoreU16DoesNotStallTheWarp) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(4096);
  const DevAddr out = mem.alloc(64);
  LaunchDims dims{1, 32, 0};
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_all();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) w.addr[l] = out + l * 2;
    co_await w.global_store_u16();
    co_await w.compute(1);
  });
  // The store retires through the memory pipe; the warp issues on.
  EXPECT_EQ(result.metrics.stall_global_cycles, 0u);
  EXPECT_LT(result.cycles, cfg.global_latency_cycles);
}

TEST(Launcher, FunctionalModeRunsEveryBlock) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(1 << 16);
  const DevAddr out = mem.alloc(4096);
  LaunchDims dims{100, 32, 0};
  LaunchOptions opt;
  opt.mode = SimMode::Functional;
  auto result = launch(cfg, mem, nullptr, dims, [=](Warp& w) -> WarpTask {
    w.mask_none();
    w.mask[0] = true;
    w.addr[0] = out + w.block_id * 4;
    w.value[0] = 1;
    co_await w.global_store_u32();
  }, opt);
  EXPECT_EQ(result.simulated_blocks, 100u);
  EXPECT_DOUBLE_EQ(result.scale(), 1.0);
  for (std::uint64_t b = 0; b < 100; ++b) EXPECT_EQ(mem.load_u32(out + b * 4), 1u);
}

TEST(Launcher, TimedModeSamplesAndExtrapolates) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(1 << 16);
  LaunchDims dims{10000, 64, 0};
  LaunchOptions opt;
  opt.mode = SimMode::Timed;
  opt.sample_waves = 2;
  auto result = launch(cfg, mem, nullptr, dims, [](Warp& w) -> WarpTask {
    co_await w.compute(20);
  }, opt);
  EXPECT_LT(result.simulated_blocks, 10000u);
  EXPECT_EQ(result.grid_blocks, 10000u);
  EXPECT_GT(result.scale(), 1.0);
  EXPECT_NEAR(result.cycles, result.sim_makespan_cycles * result.scale(), 1e-6);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Launcher, ExtrapolationIsRoughlyLinearInGridSize) {
  GpuConfig cfg = small_config();
  DeviceMemory mem(1 << 16);
  auto time_for = [&](std::uint64_t blocks) {
    LaunchDims dims{blocks, 64, 0};
    return launch(cfg, mem, nullptr, dims, [](Warp& w) -> WarpTask {
      for (int i = 0; i < 10; ++i) co_await w.compute(10);
    }).cycles;
  };
  const double t1 = time_for(1000);
  const double t2 = time_for(2000);
  EXPECT_NEAR(t2 / t1, 2.0, 0.2);
}

TEST(GpuConfig, OccupancyRules) {
  const GpuConfig cfg = GpuConfig::gtx285();
  // Thread-limited: 1024 / 256 = 4 blocks.
  EXPECT_EQ(cfg.occupancy_blocks(256, 0), 4u);
  // Shared-limited: 16KB / 9KB = 1 block.
  EXPECT_EQ(cfg.occupancy_blocks(128, 9 * 1024), 1u);
  // Block-count-limited: tiny blocks cap at 8.
  EXPECT_EQ(cfg.occupancy_blocks(32, 0), 8u);
  EXPECT_THROW(cfg.occupancy_blocks(0, 0), Error);
  EXPECT_THROW(cfg.occupancy_blocks(2048, 0), Error);
  EXPECT_THROW(cfg.occupancy_blocks(32, 64 * 1024), Error);
}

TEST(GpuConfig, SecondsConversion) {
  const GpuConfig cfg = GpuConfig::gtx285();
  EXPECT_NEAR(cfg.seconds(1.476e9), 1.0, 1e-9);
}

TEST(Metrics, AccumulateAndPrint) {
  Metrics a, b;
  a.global_transactions = 5;
  a.tex_lane_fetches = 10;
  a.tex_misses = 2;
  b.global_transactions = 7;
  a += b;
  EXPECT_EQ(a.global_transactions, 12u);
  EXPECT_NEAR(a.tex_hit_rate(), 0.8, 1e-12);
  std::ostringstream os;
  os << a;
  EXPECT_NE(os.str().find("gmem_txn=12"), std::string::npos);
}

}  // namespace
}  // namespace acgpu::gpusim
