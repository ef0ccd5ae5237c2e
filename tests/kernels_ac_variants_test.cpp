// Tests for the STT-placement ablation (texture vs global), the one kernel
// option beyond the paper's two approaches.
#include <gtest/gtest.h>

#include <algorithm>

#include "ac/serial_matcher.h"
#include "kernels/ac_kernel.h"
#include "workload/markov_corpus.h"

namespace acgpu::kernels {
namespace {

struct Fixture {
  gpusim::GpuConfig cfg;
  gpusim::DeviceMemory mem;
  ac::PatternSet patterns;
  ac::Dfa dfa;
  DeviceDfa ddfa;
  gpusim::DevAddr text_addr;
  std::string text;

  Fixture(std::vector<std::string> pats, std::string text_in)
      : cfg(gpusim::GpuConfig::gtx285()),
        mem(64 << 20),
        patterns(std::move(pats)),
        dfa(ac::build_dfa(patterns, 8)),
        ddfa(mem, dfa),
        text_addr(0),
        text(std::move(text_in)) {
    cfg.num_sms = 4;
    text_addr = upload_class_text(mem, ddfa, text);
  }

  AcLaunchOutcome run(AcLaunchSpec spec) {
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::size_t mark = mem.mark();
    auto out = run_ac_kernel(cfg, mem, ddfa, text_addr, text.size(), spec);
    mem.release(mark);
    return out;
  }

  std::vector<ac::Match> expected() const {
    auto m = ac::find_all(dfa, text);
    std::sort(m.begin(), m.end());
    return m;
  }
};

AcLaunchSpec small_spec() {
  AcLaunchSpec spec;
  spec.chunk_bytes = 32;
  spec.threads_per_block = 64;
  spec.match_capacity = 64;
  return spec;
}

TEST(SttPlacement, GlobalPlacementMatchesSerial) {
  Fixture f({"he", "she", "his", "hers"}, workload::make_corpus(6000, 1) + " ushers");
  AcLaunchSpec spec = small_spec();
  spec.stt_placement = SttPlacement::kGlobal;
  for (auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
    spec.approach = approach;
    EXPECT_EQ(f.run(spec).matches.matches, f.expected()) << to_string(approach);
  }
}

TEST(SttPlacement, GlobalPlacementSkipsTextureAndIsSlower) {
  Fixture f({"the", "and", "tion"}, workload::make_corpus(16384, 2));
  AcLaunchSpec spec = small_spec();
  spec.approach = Approach::kShared;
  spec.stt_placement = SttPlacement::kGlobal;
  const auto via_global = f.run(spec);
  spec.stt_placement = SttPlacement::kTexture;
  const auto via_texture = f.run(spec);
  // No texture traffic at all in the global-placement run...
  EXPECT_EQ(via_global.sim.metrics.tex_requests, 0u);
  EXPECT_GT(via_texture.sim.metrics.tex_requests, 0u);
  // ...and far more global transactions (scattered uncached STT reads),
  // which is exactly why the paper puts the STT in texture memory.
  EXPECT_GT(via_global.sim.metrics.global_transactions,
            via_texture.sim.metrics.global_transactions * 4);
  EXPECT_GT(via_global.sim.cycles, via_texture.sim.cycles);
}

}  // namespace
}  // namespace acgpu::kernels
