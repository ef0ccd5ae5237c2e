// Cross-module integration tests: the full pipeline from a Snort ruleset or
// DNA workload down through the simulated kernels, plus end-to-end checks of
// the paper's qualitative claims at small scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "ac/serial_matcher.h"
#include "kernels/ac_kernel.h"
#include "kernels/pfac_kernel.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"
#include "workload/snort_rules.h"

namespace acgpu {
namespace {

TEST(Integration, SnortPipelineEndToEnd) {
  // Rules -> patterns -> DFA -> simulated shared-memory kernel over a
  // packet-like payload, attributing matches back to rules.
  const auto rules = workload::parse_snort_rules(
      "alert tcp any any -> any any (msg:\"r0\"; content:\"attack\";)\n"
      "alert tcp any any -> any any (msg:\"r1\"; content:\"evil\"; content:\"bad\";)\n");
  std::vector<std::uint32_t> owner;
  const ac::PatternSet patterns = workload::rules_to_patterns(rules, &owner);
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);

  std::string payload = workload::make_corpus(8000, 50);
  payload.replace(100, 6, "attack");
  payload.replace(4000, 4, "evil");
  payload.replace(7000, 3, "bad");

  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 2;
  gpusim::DeviceMemory mem(32 << 20);
  const kernels::DeviceDfa ddfa(mem, dfa);
  const auto text_addr = kernels::upload_class_text(mem, ddfa, payload);

  kernels::AcLaunchSpec spec;
  spec.approach = kernels::Approach::kShared;
  spec.chunk_bytes = 32;
  spec.threads_per_block = 64;
  spec.sim.mode = gpusim::SimMode::Functional;
  const auto out = kernels::run_ac_kernel(cfg, mem, ddfa, text_addr,
                                          payload.size(), spec);

  auto expect = ac::find_all(dfa, payload);
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(out.matches.matches, expect);
  ASSERT_GE(out.matches.matches.size(), 3u);

  // Rule attribution: the match at 105 must map to rule 0.
  const auto& first = out.matches.matches.front();
  EXPECT_EQ(first.end, 105u);
  EXPECT_EQ(owner[static_cast<std::size_t>(first.pattern)], 0u);
}

TEST(Integration, DnaPipelineAcrossAllMatchers) {
  const std::string genome = workload::make_dna_sequence(30000, 60);
  const ac::PatternSet motifs = workload::extract_dna_motifs(genome, 40, 10, 0.05, 61);
  const ac::Dfa dfa = ac::build_dfa(motifs, 8);

  auto serial = ac::find_all(dfa, genome);
  std::sort(serial.begin(), serial.end());

  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 2;
  gpusim::DeviceMemory mem(32 << 20);
  const kernels::DeviceDfa ddfa(mem, dfa);
  const auto text_addr = kernels::upload_class_text(mem, ddfa, genome);
  kernels::AcLaunchSpec spec;
  spec.chunk_bytes = 32;
  spec.threads_per_block = 64;
  spec.sim.mode = gpusim::SimMode::Functional;
  for (auto approach : {kernels::Approach::kGlobalOnly, kernels::Approach::kShared}) {
    spec.approach = approach;
    const std::size_t mark = mem.mark();
    const auto out =
        kernels::run_ac_kernel(cfg, mem, ddfa, text_addr, genome.size(), spec);
    mem.release(mark);
    EXPECT_EQ(out.matches.matches, serial) << kernels::to_string(approach);
  }
}

TEST(Integration, PfacAgreesWithAcKernelsOnSharedWorkload) {
  const std::string corpus = workload::make_corpus(12000, 70);
  workload::ExtractConfig ec;
  ec.count = 30;
  ec.min_length = 4;
  ec.max_length = 10;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);

  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 2;
  gpusim::DeviceMemory mem(64 << 20);

  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  const kernels::DeviceDfa ddfa(mem, dfa);
  const ac::PfacAutomaton pfac(patterns);
  const kernels::DevicePfac dpfac(mem, pfac);
  // PFAC reads bytes, the AC kernel byte classes.
  const auto text_addr = kernels::upload_text(mem, corpus);
  const auto class_addr = kernels::upload_class_text(mem, ddfa, corpus);

  kernels::AcLaunchSpec ac_spec;
  ac_spec.approach = kernels::Approach::kShared;
  ac_spec.chunk_bytes = 32;
  ac_spec.threads_per_block = 64;
  ac_spec.sim.mode = gpusim::SimMode::Functional;
  const auto ac_out =
      kernels::run_ac_kernel(cfg, mem, ddfa, class_addr, corpus.size(), ac_spec);

  kernels::PfacLaunchSpec pfac_spec;
  pfac_spec.sim.mode = gpusim::SimMode::Functional;
  const auto pfac_out =
      kernels::run_pfac_kernel(cfg, mem, dpfac, text_addr, corpus.size(), pfac_spec);

  EXPECT_EQ(ac_out.matches.matches, pfac_out.matches.matches);
}

TEST(Integration, DfaSerializationFeedsKernels) {
  // Build a DFA, round-trip it through its binary format, upload the loaded
  // copy, and verify kernel results still match.
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  const ac::Dfa original = ac::build_dfa(patterns, 8);
  std::stringstream ss;
  original.save(ss);
  const ac::Dfa loaded = ac::Dfa::load(ss);

  const std::string text = "ushers herd sheep; his herbs";
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 2;
  gpusim::DeviceMemory mem(16 << 20);
  const kernels::DeviceDfa ddfa(mem, loaded);
  const auto text_addr = kernels::upload_class_text(mem, ddfa, text);
  kernels::AcLaunchSpec spec;
  spec.approach = kernels::Approach::kShared;
  spec.chunk_bytes = 8;
  spec.threads_per_block = 32;
  spec.sim.mode = gpusim::SimMode::Functional;
  const auto out =
      kernels::run_ac_kernel(cfg, mem, ddfa, text_addr, text.size(), spec);
  auto expect = ac::find_all(original, text);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.matches.matches, expect);
}

TEST(Integration, TexHitRateFallsAsDictionaryGrows) {
  // The mechanism behind the paper's pattern-count sensitivity: a bigger
  // STT stresses the texture cache.
  const std::string corpus = workload::make_corpus(60000, 80);
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 2;

  auto hit_rate_for = [&](std::uint32_t count) {
    workload::ExtractConfig ec;
    ec.count = count;
    const ac::Dfa dfa = ac::build_dfa(workload::extract_patterns(corpus, ec), 8);
    gpusim::DeviceMemory mem(128 << 20);
    const kernels::DeviceDfa ddfa(mem, dfa);
    const auto text_addr = kernels::upload_class_text(mem, ddfa, corpus);
    kernels::AcLaunchSpec spec;
    spec.approach = kernels::Approach::kShared;
    spec.sim.mode = gpusim::SimMode::Timed;
    const auto out =
        kernels::run_ac_kernel(cfg, mem, ddfa, text_addr, corpus.size(), spec);
    return out.sim.metrics.tex_hit_rate();
  };

  const double small = hit_rate_for(20);
  const double large = hit_rate_for(2000);
  EXPECT_GT(small, large);
  EXPECT_GT(small, 0.9);
}

}  // namespace
}  // namespace acgpu
