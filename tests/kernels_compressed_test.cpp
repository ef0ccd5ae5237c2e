#include "kernels/compressed_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ac/serial_matcher.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::kernels {
namespace {

struct Fixture {
  gpusim::GpuConfig cfg;
  gpusim::DeviceMemory mem;
  ac::PatternSet patterns;
  ac::Dfa dfa;
  ac::CompressedStt cstt;
  DeviceCompressedDfa dcdfa;
  gpusim::DevAddr text_addr;
  std::string text;

  Fixture(std::vector<std::string> pats, std::string text_in)
      : cfg(gpusim::GpuConfig::gtx285()),
        mem(128 << 20),
        patterns(std::move(pats)),
        dfa(ac::build_dfa(patterns, 8)),
        cstt(dfa),
        dcdfa(mem, cstt, dfa),
        text_addr(0),
        text(std::move(text_in)) {
    cfg.num_sms = 4;
    text_addr = upload_text(mem, text);
  }

  AcLaunchOutcome run(std::uint32_t chunk = 32, std::uint32_t tpb = 64,
                      std::uint32_t capacity = 64) {
    CompressedLaunchSpec spec;
    spec.chunk_bytes = chunk;
    spec.threads_per_block = tpb;
    spec.match_capacity = capacity;
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::size_t mark = mem.mark();
    auto out = run_compressed_kernel(cfg, mem, dcdfa, text_addr, text.size(), spec);
    mem.release(mark);
    return out;
  }

  std::vector<ac::Match> expected() const {
    auto m = ac::find_all(dfa, text);
    std::sort(m.begin(), m.end());
    return m;
  }
};

TEST(CompressedKernel, MatchesSerialOnPaperExample) {
  Fixture f({"he", "she", "his", "hers"}, "ushers and sheep hide his herbs ushers");
  const auto out = f.run();
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(CompressedKernel, EnglishCorpusExtractedPatterns) {
  const std::string corpus = workload::make_corpus(20000, 91);
  workload::ExtractConfig ec;
  ec.count = 60;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
  Fixture f({patterns.begin(), patterns.end()}, corpus);
  ASSERT_FALSE(f.expected().empty());
  EXPECT_EQ(f.run(64, 128, 128).matches.matches, f.expected());
}

TEST(CompressedKernel, BoundaryStraddlingMatches) {
  std::string text(6000, 'y');
  for (std::size_t pos : {30ul, 63ul, 2040ul, 4095ul})
    text.replace(pos, 8, "boundary");
  Fixture f({"boundary", "ound"}, text);
  EXPECT_EQ(f.run().matches.matches, f.expected());
}

TEST(CompressedKernel, DenseOverlapping) {
  Fixture f({"aa", "aba", "a"}, std::string(800, 'a'));
  const auto out = f.run(32, 64, 96);
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(CompressedKernel, UsesBothTexturesAndSmallerFootprint) {
  const std::string corpus = workload::make_corpus(30000, 92);
  workload::ExtractConfig ec;
  ec.count = 500;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
  Fixture f({patterns.begin(), patterns.end()}, corpus);
  const auto out = f.run(64, 128, 64);
  EXPECT_EQ(out.matches.matches, f.expected());
  // The device table is much smaller than the paper's byte-wide STT.
  EXPECT_LT(f.dcdfa.device_bytes(),
            std::size_t{f.dfa.state_count()} * f.dfa.byte_pitch() * 4 / 4);
  EXPECT_GT(out.sim.metrics.tex_requests, 0u);
}

TEST(CompressedKernel, ValidatesSpec) {
  Fixture f({"abcdefgh"}, "text with abcdefgh inside");
  CompressedLaunchSpec spec;
  spec.chunk_bytes = 30;
  EXPECT_THROW(
      run_compressed_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
      Error);
  spec.chunk_bytes = 4;  // overlap 7 >= chunk
  EXPECT_THROW(
      run_compressed_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
      Error);
}

}  // namespace
}  // namespace acgpu::kernels
