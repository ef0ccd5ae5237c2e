#include "kernels/pfac_kernel.h"

#include <gtest/gtest.h>

#include "ac/naive_matcher.h"
#include "kernels/ac_kernel.h"
#include "workload/markov_corpus.h"

namespace acgpu::kernels {
namespace {

struct PfacFixture {
  gpusim::GpuConfig cfg;
  gpusim::DeviceMemory mem;
  ac::PatternSet patterns;
  ac::PfacAutomaton pfac;
  DevicePfac dpfac;
  gpusim::DevAddr text_addr;
  std::string text;

  PfacFixture(std::vector<std::string> pats, std::string text_in)
      : cfg(gpusim::GpuConfig::gtx285()),
        mem(64 << 20),
        patterns(std::move(pats)),
        pfac(patterns),
        dpfac(mem, pfac),
        text_addr(0),
        text(std::move(text_in)) {
    cfg.num_sms = 4;
    text_addr = upload_text(mem, text);
  }

  PfacLaunchOutcome run(std::uint32_t tpb = 64) {
    PfacLaunchSpec spec;
    spec.threads_per_block = tpb;
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::size_t mark = mem.mark();
    auto out = run_pfac_kernel(cfg, mem, dpfac, text_addr, text.size(), spec);
    mem.release(mark);
    return out;
  }

  std::vector<ac::Match> expected() const {
    return ac::find_all_naive(patterns, text);
  }
};

TEST(PfacKernel, MatchesNaiveOnPaperExample) {
  PfacFixture f({"he", "she", "his", "hers"}, "ushers and sheep hide his herbs");
  const auto out = f.run();
  EXPECT_EQ(out.matches.matches, f.expected());
  EXPECT_EQ(out.threads, f.text.size());
}

TEST(PfacKernel, OverlappingMatches) {
  PfacFixture f({"aa", "aaa"}, std::string(200, 'a'));
  PfacLaunchSpec spec;
  spec.sim.mode = gpusim::SimMode::Functional;
  spec.match_capacity = 4;
  const auto out = run_pfac_kernel(f.cfg, f.mem, f.dpfac, f.text_addr,
                                   f.text.size(), spec);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(PfacKernel, EnglishCorpus) {
  const std::string corpus = workload::make_corpus(10000, 21);
  PfacFixture f({"the", "and", "tion", "er"}, corpus);
  const auto out = f.run(128);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(PfacKernel, ThreadsDieQuicklyOnRarePatterns) {
  const std::string corpus = workload::make_corpus(20000, 22);
  PfacFixture f({"zzzzqqqq"}, corpus);
  const auto out = f.run(128);
  EXPECT_TRUE(out.matches.matches.empty());
  // Nearly every PFAC thread dies on its first byte, so the per-thread
  // instruction count must be far below max_pattern_length iterations.
  const double instrs_per_thread =
      static_cast<double>(out.sim.metrics.warp_instructions) * 32.0 /
      static_cast<double>(out.threads);
  EXPECT_LT(instrs_per_thread, 60.0);
}

TEST(PfacKernel, FirstStepLoadsCoalescePerfectly) {
  const std::string corpus = workload::make_corpus(8192, 23);
  PfacFixture f({"zzzzqqqq"}, corpus);  // all threads die at step 1
  const auto out = f.run(128);
  // One byte-load per warp covering 32 consecutive bytes: ~1 transaction
  // per request (vs 16 for the chunked global-only kernel).
  EXPECT_LT(out.sim.metrics.avg_transactions_per_request(), 2.0);
}

TEST(PfacKernel, MatchEndsReportedConsistently) {
  PfacFixture f({"abc", "bc", "c"}, "xabcx");
  const auto out = f.run();
  // All three patterns end at index 3.
  ASSERT_EQ(out.matches.matches.size(), 3u);
  for (const auto& m : out.matches.matches) EXPECT_EQ(m.end, 3u);
}

}  // namespace
}  // namespace acgpu::kernels
