#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "harness/pipeline_experiment.h"
#include "harness/result_cache.h"
#include "util/byte_units.h"
#include "util/error.h"

namespace acgpu::harness {
namespace {

// One tiny sweep shared by all tests in this file (runs the real pipeline:
// corpus -> patterns -> DFA -> serial model -> three simulated kernels).
class SweepTest : public ::testing::Test {
 protected:
  static SweepConfig tiny_config() {
    SweepConfig c;
    c.sizes = {50 * kKiB, 200 * kKiB};
    c.pattern_counts = {20, 200};
    c.cpu_sample_bytes = 50 * kKiB;
    c.device_bytes = 64 * kMiB;
    c.sample_waves = 2;
    // Keep the full 30-SM GTX 285: the paper's shared > global ordering
    // depends on the uncoalesced traffic saturating the memory system,
    // which a cut-down SM count would mask.
    return c;
  }

  static const std::vector<PointResult>& results() {
    static const std::vector<PointResult> r = run_sweep(tiny_config(), nullptr);
    return r;
  }
};

TEST_F(SweepTest, GridIsComplete) {
  EXPECT_EQ(results().size(), 4u);
  for (const auto& r : results()) {
    EXPECT_GT(r.dfa_states, 0u);
    EXPECT_GT(r.serial_seconds, 0.0);
    EXPECT_GT(r.global.seconds, 0.0);
    EXPECT_GT(r.shared.seconds, 0.0);
    EXPECT_GT(r.shared_naive.seconds, 0.0);
    EXPECT_GT(r.match_count, 0u);
  }
}

TEST_F(SweepTest, PaperOrderingHolds) {
  for (const auto& r : results()) {
    // shared < global < serial (the paper's headline ordering).
    EXPECT_LT(r.shared.seconds, r.global.seconds)
        << format_bytes(r.text_bytes) << "/" << r.pattern_count;
    EXPECT_LT(r.global.seconds, r.serial_seconds)
        << format_bytes(r.text_bytes) << "/" << r.pattern_count;
    // Diagonal store beats the naive store.
    EXPECT_LT(r.shared.seconds, r.shared_naive.seconds);
  }
}

TEST_F(SweepTest, SerialModelDegradesWithPatterns) {
  const auto& rs = results();
  // Same size, more patterns -> more serial cycles/byte.
  EXPECT_GT(rs[2].serial_cycles_per_byte, rs[0].serial_cycles_per_byte);
}

TEST_F(SweepTest, DerivedMetricsConsistent) {
  for (const auto& r : results()) {
    EXPECT_NEAR(r.serial_gbps(),
                static_cast<double>(r.text_bytes) * 8 / r.serial_seconds / 1e9, 1e-9);
    EXPECT_NEAR(r.speedup_shared(), r.serial_seconds / r.shared.seconds, 1e-12);
    EXPECT_GE(r.shared.tex_hit_rate, 0.0);
    EXPECT_LE(r.shared.tex_hit_rate, 1.0);
  }
}

TEST_F(SweepTest, CacheRoundTrips) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "acgpu_cache_test";
  fs::create_directories(dir);
  setenv("ACGPU_CACHE_DIR", dir.c_str(), 1);
  const SweepConfig config = tiny_config();
  store_cached(config, results());
  const auto loaded = load_cached(config);
  unsetenv("ACGPU_CACHE_DIR");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), results().size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*loaded)[i].text_bytes, results()[i].text_bytes);
    EXPECT_EQ((*loaded)[i].pattern_count, results()[i].pattern_count);
    EXPECT_DOUBLE_EQ((*loaded)[i].serial_seconds, results()[i].serial_seconds);
    EXPECT_DOUBLE_EQ((*loaded)[i].shared.seconds, results()[i].shared.seconds);
    EXPECT_EQ((*loaded)[i].shared.warp_instructions,
              results()[i].shared.warp_instructions);
  }
  fs::remove_all(dir);
}

TEST_F(SweepTest, CacheMissOnDifferentConfig) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "acgpu_cache_test2";
  fs::create_directories(dir);
  setenv("ACGPU_CACHE_DIR", dir.c_str(), 1);
  SweepConfig config = tiny_config();
  store_cached(config, results());
  config.seed += 1;  // different config -> different key -> miss
  EXPECT_FALSE(load_cached(config).has_value());
  unsetenv("ACGPU_CACHE_DIR");
  fs::remove_all(dir);
}

TEST(SweepConfigTest, CacheKeyIsStableAndSensitive) {
  const SweepConfig a = SweepConfig::paper();
  const SweepConfig b = SweepConfig::paper();
  EXPECT_EQ(a.cache_key(), b.cache_key());
  SweepConfig c = SweepConfig::paper();
  c.chunk_bytes = 128;
  EXPECT_NE(a.cache_key(), c.cache_key());
  EXPECT_NE(a.cache_key(), SweepConfig::quick().cache_key());
  // Pinned: the key moves with the schema version, which moves whenever the
  // simulated timing does, so a cached sweep of an older model is never
  // replayed (schema 10: the byte-class device STT).
  EXPECT_EQ(a.cache_key(), "9a5e6455578028fa");
}

TEST(SweepConfigTest, PaperGridMatchesPaperRanges) {
  const SweepConfig paper = SweepConfig::paper();
  EXPECT_EQ(paper.sizes.front(), 50 * kKiB);
  EXPECT_EQ(paper.sizes.back(), 200 * kMiB);
  EXPECT_EQ(paper.pattern_counts.front(), 100u);
  EXPECT_EQ(paper.pattern_counts.back(), 20000u);
}

TEST(SweepConfigTest, EmptyGridRejected) {
  SweepConfig c = SweepConfig::quick();
  c.sizes.clear();
  EXPECT_THROW(run_sweep(c, nullptr), acgpu::Error);
}

/// A pipeline-sweep point at `count` patterns and `streams` streams with the
/// given stage busy times and makespan, in ms.
PipelinePoint pipeline_point(std::uint32_t count, std::uint32_t streams, double h2d,
                             double kernel, double d2h, double makespan,
                             double baseline, std::uint32_t depth) {
  PipelinePoint p;
  p.pattern_count = count;
  p.streams = streams;
  p.stats.h2d_busy_seconds = h2d * 1e-3;
  p.stats.compute_busy_seconds = kernel * 1e-3;
  p.stats.d2h_busy_seconds = d2h * 1e-3;
  p.stats.makespan_seconds = makespan * 1e-3;
  p.stats.max_queue_depth = depth;
  p.baseline_seconds = baseline * 1e-3;
  return p;
}

TEST(PipelineSweepCriterion, GatesOverlapEfficiencyNotSpeedup) {
  // The committed 24,000-pattern row: the busiest stage (H2D, 17.187 ms)
  // fills 0.971 of the 17.707 ms makespan at 4 and 8 streams.
  PipelineSweepResult r;
  r.points = {pipeline_point(8000, 4, 17.187, 8.682, 3.291, 17.481, 28.406, 2),
              pipeline_point(24000, 1, 16.937, 15.292, 5.733, 37.963, 37.675, 2),
              pipeline_point(24000, 2, 17.187, 15.277, 5.967, 19.686, 37.675, 2),
              pipeline_point(24000, 4, 17.187, 15.277, 5.967, 17.707, 37.675, 3),
              pipeline_point(24000, 8, 17.187, 15.277, 5.967, 17.707, 37.675, 3)};
  EXPECT_NEAR(r.points[1].overlap_efficiency(), 0.4462, 1e-4);
  EXPECT_NEAR(r.best_deep_stream_efficiency(), 0.9706, 1e-4);
  EXPECT_TRUE(r.criterion_pass());

  // A faster kernel shrinks the single-buffer baseline, not the pipelined
  // makespan: the ratio falls under 2.0x while the criterion still holds.
  for (PipelinePoint& p : r.points) p.baseline_seconds = 34.0e-3;
  EXPECT_LT(r.points[3].speedup_vs_single_buffer(), 2.0);
  EXPECT_TRUE(r.criterion_pass());

  // Past 17.187 / 0.95 = 18.09 ms the deep points fail.
  r.points[3].stats.makespan_seconds = r.points[4].stats.makespan_seconds = 18.2e-3;
  EXPECT_LT(r.best_deep_stream_efficiency(), PipelineSweepResult::kRequiredEfficiency);
  EXPECT_FALSE(r.criterion_pass());

  // One stream alone never passes: no deep point, no overlap.
  PipelineSweepResult single;
  single.points = {r.points[1]};
  EXPECT_EQ(single.best_deep_stream_efficiency(), 0.0);
  EXPECT_FALSE(single.criterion_pass());
}

TEST(PipelineSweepCriterion, KeepsTheStreamAndQueueClauses) {
  PipelineSweepResult r;
  r.points = {pipeline_point(24000, 2, 17.187, 15.277, 5.967, 17.707, 37.675, 3),
              pipeline_point(24000, 4, 17.187, 15.277, 5.967, 17.707, 37.675, 3)};
  EXPECT_GE(r.best_deep_stream_efficiency(), PipelineSweepResult::kRequiredEfficiency);
  EXPECT_FALSE(r.streams4_vs_2_distinct());  // streams=4 must beat streams=2
  EXPECT_FALSE(r.criterion_pass());
  r.points[0].stats.makespan_seconds = 19.686e-3;
  EXPECT_TRUE(r.criterion_pass());
  for (PipelinePoint& p : r.points) p.stats.max_queue_depth = 2;
  EXPECT_FALSE(r.criterion_pass());  // a double buffer's depth is not enough
}

}  // namespace
}  // namespace acgpu::harness
