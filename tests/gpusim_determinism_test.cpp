// The discrete-event engine must be fully deterministic: identical launches
// produce bit-identical cycle counts and metrics, which is what makes the
// result cache and the paper-figure comparisons meaningful.
#include <gtest/gtest.h>

#include "kernels/ac_kernel.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::gpusim {
namespace {

TEST(Determinism, IdenticalLaunchesIdenticalCycles) {
  GpuConfig cfg = GpuConfig::gtx285();
  const std::string text = workload::make_corpus(200000, 42);
  workload::ExtractConfig ec;
  ec.count = 300;
  const ac::Dfa dfa = ac::build_dfa(workload::extract_patterns(text, ec), 8);

  auto run_once = [&] {
    DeviceMemory mem(64 << 20);
    const kernels::DeviceDfa ddfa(mem, dfa);
    const auto addr = kernels::upload_class_text(mem, ddfa, text);
    kernels::AcLaunchSpec spec;
    spec.sim.mode = SimMode::Timed;
    return kernels::run_ac_kernel(cfg, mem, ddfa, addr, text.size(), spec);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.sim.sim_makespan_cycles, b.sim.sim_makespan_cycles);
  EXPECT_EQ(a.sim.metrics.global_transactions, b.sim.metrics.global_transactions);
  EXPECT_EQ(a.sim.metrics.tex_misses, b.sim.metrics.tex_misses);
  EXPECT_EQ(a.sim.metrics.warp_instructions, b.sim.metrics.warp_instructions);
  EXPECT_EQ(a.sim.metrics.stall_tex_cycles, b.sim.metrics.stall_tex_cycles);
  EXPECT_EQ(a.matches.total_reported, b.matches.total_reported);
}

TEST(Determinism, FunctionalAndTimedAgreeOnSideEffectsOfSampledBlocks) {
  // The timed run's sampled blocks must produce exactly the same records as
  // the same blocks in a functional run (the timing model may not perturb
  // data flow).
  GpuConfig cfg = GpuConfig::gtx285();
  cfg.num_sms = 2;
  const std::string text = workload::make_corpus(60000, 43);
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"the", "and"}), 8);

  auto run_mode = [&](SimMode mode) {
    DeviceMemory mem(32 << 20);
    const kernels::DeviceDfa ddfa(mem, dfa);
    const auto addr = kernels::upload_class_text(mem, ddfa, text);
    kernels::AcLaunchSpec spec;
    spec.sim.mode = mode;
    return kernels::run_ac_kernel(cfg, mem, ddfa, addr, text.size(), spec);
  };
  const auto timed = run_mode(SimMode::Timed);
  const auto full = run_mode(SimMode::Functional);
  // Every match the timed run reported must be in the functional run's set.
  for (const auto& m : timed.matches.matches) {
    EXPECT_TRUE(std::binary_search(full.matches.matches.begin(),
                                   full.matches.matches.end(), m));
  }
}

TEST(Warp, HelperGeometry) {
  Warp w;
  w.block_id = 3;
  w.block_dim = 128;
  w.warp_in_block = 2;
  w.lane_count = 32;
  EXPECT_EQ(w.thread_in_block(5), 2u * 32 + 5);
  EXPECT_EQ(w.global_thread(5), 3u * 128 + 69);
}

TEST(Warp, MaskHelpers) {
  Warp w;
  w.lane_count = 20;
  w.mask_all();
  for (std::uint32_t l = 0; l < 32; ++l) EXPECT_EQ(w.mask[l], l < 20);
  EXPECT_TRUE(w.any_active());
  w.mask_none();
  EXPECT_FALSE(w.any_active());
  w.mask[7] = true;
  EXPECT_TRUE(w.any_active());
}

}  // namespace
}  // namespace acgpu::gpusim
