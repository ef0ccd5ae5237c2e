// Fuzzed stream x batch-count conformance: every stream count, with fewer
// and more batches than its upload buffers (one per stream), must produce
// exactly the matches of a single-shot Engine::scan, across all
// oracle workload families (oracle/workload_gen.h). Staging is pure timing
// — a divergence here means a batch was stitched or an upload buffer
// recycled incorrectly, and the oracle's differential diff pinpoints where.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ac/match.h"
#include "gpusim/device_memory.h"
#include "oracle/differential.h"
#include "oracle/matcher.h"
#include "oracle/workload_gen.h"
#include "pipeline/engine.h"
#include "pipeline/pipeline.h"

namespace acgpu::pipeline {
namespace {

gpusim::GpuConfig small_gpu() {
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;  // functional runs simulate every block; keep them quick
  return cfg;
}

constexpr std::uint64_t kSeed = 0xDE9C0F;
constexpr std::uint32_t kStreams[] = {1, 2, 3, 4, 6, 8};
/// The text is split into about this many batches (the link split may add
/// more, which is exactly the production path).
constexpr std::uint64_t kBatchCounts[] = {3, 7, 17};

/// Runs one staged configuration in Functional mode, growing the match
/// capacity on overflow (tiny batches concentrate matches per thread).
Result<std::vector<ac::Match>> run_staged(const oracle::CompiledWorkload& w,
                                          std::uint32_t streams,
                                          std::uint64_t batches) {
  PipelineOptions opt;
  opt.streams = streams;
  opt.batch_bytes = std::max<std::uint64_t>(1, w.text().size() / batches);
  opt.threads_per_block = 64;
  opt.mode = gpusim::SimMode::Functional;

  for (std::uint32_t capacity = 64; capacity <= (1u << 14); capacity *= 4) {
    opt.match_capacity = capacity;
    gpusim::DeviceMemory mem(64u << 20);
    const kernels::DeviceDfa ddfa(mem, w.dfa());
    Result<PipelineResult> r = MatchPipeline(small_gpu(), mem, ddfa, opt).run(w.text());
    if (!r.is_ok()) return r.status();
    if (r.value().overflowed) continue;
    ac::normalize_matches(r.value().matches);
    return std::move(r.value().matches);
  }
  return Status::capacity_exceeded("staged run overflowed at capacity 16384");
}

TEST(PipelineDepthConformance, AllStreamDepthCombosMatchSingleShotScan) {
  for (std::uint64_t iteration = 0; iteration < oracle::workload_family_count();
       ++iteration) {
    const oracle::CompiledWorkload w(oracle::generate_workload(kSeed, iteration));
    SCOPED_TRACE("workload " + w.name());

    // The reference: a single-shot scan through the public Engine (one
    // batch, one stream), itself cross-checked against the serial DFA.
    EngineOptions eopt;
    eopt.streams = 1;
    eopt.batch_bytes = w.text().size() + 16;
    eopt.threads_per_block = 64;
    DeviceOptions dopt;
    dopt.gpu = small_gpu();
    Result<Device> device = Device::create(dopt);
    ASSERT_TRUE(device.is_ok()) << device.status().to_string();
    Result<Engine> engine = Engine::create(device.value(), w.patterns(), eopt);
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    Result<ScanResult> single = engine.value().scan(w.text());
    ASSERT_TRUE(single.is_ok()) << single.status().to_string();
    ASSERT_FALSE(single.value().overflowed);
    std::vector<ac::Match> reference = single.value().matches;
    ac::normalize_matches(reference);
    ASSERT_EQ(reference, oracle::reference_matches(w))
        << "single-shot Engine::scan disagrees with the serial DFA";

    for (const std::uint32_t streams : kStreams) {
      for (const std::uint64_t batches : kBatchCounts) {
        const std::uint64_t salt = streams * 100 + batches;
        Result<std::vector<ac::Match>> got = run_staged(w, streams, batches);
        ASSERT_TRUE(got.is_ok()) << "streams=" << streams << " batches=" << batches
                                 << ": " << got.status().to_string();
        const auto divergence = oracle::diff_matches(
            w, std::string("pipeline-s") + std::to_string(streams) + "-b" +
                   std::to_string(batches),
            salt, reference, got.value());
        EXPECT_FALSE(divergence.has_value()) << oracle::describe(*divergence);
      }
    }
  }
}

}  // namespace
}  // namespace acgpu::pipeline
