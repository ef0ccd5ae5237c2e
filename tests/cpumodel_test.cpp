#include <gtest/gtest.h>

#include "ac/dfa.h"
#include "cpumodel/cache_model.h"
#include "cpumodel/serial_timing.h"
#include "util/error.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::cpumodel {
namespace {

TEST(SetAssocCache, HitsAfterFill) {
  SetAssocCache cache(1024, 64, 2);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));
  EXPECT_FALSE(cache.access(64));
  EXPECT_NEAR(cache.miss_rate(), 0.5, 1e-12);
}

TEST(SetAssocCache, LruEviction) {
  SetAssocCache cache(256, 64, 2);  // 2 sets of 2 ways
  // Lines 0, 2, 4 map to set 0.
  cache.access(0 * 64);
  cache.access(2 * 64);
  cache.access(0 * 64);  // refresh 0; 2 becomes LRU
  cache.access(4 * 64);  // evict 2
  EXPECT_TRUE(cache.access(0 * 64));
  EXPECT_FALSE(cache.access(2 * 64));
}

TEST(SetAssocCache, SequentialScanMissesOncePerLine) {
  SetAssocCache cache(32 * 1024, 64, 8);
  for (std::uint64_t a = 0; a < 4096; ++a) cache.access(a);
  EXPECT_EQ(cache.misses(), 4096u / 64);
}

TEST(SetAssocCache, ValidatesGeometry) {
  EXPECT_THROW(SetAssocCache(1024, 63, 2), acgpu::Error);
  EXPECT_THROW(SetAssocCache(1024, 64, 0), acgpu::Error);
  EXPECT_THROW(SetAssocCache(64, 64, 2), acgpu::Error);
  // A probe indexes its set by mask: 3 sets of 2 ways cannot be one.
  EXPECT_THROW(SetAssocCache(3 * 64 * 2, 64, 2), acgpu::Error);
  EXPECT_NO_THROW(SetAssocCache(4 * 64 * 2, 64, 2));
}

TEST(SetAssocCache, ClearResets) {
  SetAssocCache cache(1024, 64, 2);
  cache.access(0);
  cache.clear();
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_FALSE(cache.access(0));
}

class SerialTiming : public ::testing::Test {
 protected:
  static ac::Dfa dfa_for(std::uint32_t pattern_count) {
    const std::string corpus = workload::make_corpus(1 << 20, 7);
    workload::ExtractConfig ec;
    ec.count = pattern_count;
    return ac::build_dfa(workload::extract_patterns(corpus, ec));
  }
};

TEST_F(SerialTiming, BaseCostWithTinyStt) {
  // A tiny DFA fits in L1: cycles/byte should be near the base cost.
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"he", "she"}));
  const std::string text = workload::make_corpus(100000, 8);
  const auto est = estimate_serial(dfa, text, text.size());
  const CpuConfig cfg = CpuConfig::core2();
  EXPECT_GE(est.cycles_per_byte, cfg.base_cycles_per_byte);
  // Streaming text misses once per L1 line, adding a few cycles/byte.
  EXPECT_LT(est.cycles_per_byte, cfg.base_cycles_per_byte + 6);
  EXPECT_LT(est.l1_miss_rate, 0.05);
}

TEST_F(SerialTiming, CostGrowsWithPatternCount) {
  const std::string text = workload::make_corpus(200000, 9);
  const auto small = estimate_serial(dfa_for(100), text, text.size());
  const auto large = estimate_serial(dfa_for(4000), text, text.size());
  // The paper's Fig 13 shape: a bigger dictionary -> bigger STT -> more
  // cache misses -> more cycles per byte.
  EXPECT_GT(large.cycles_per_byte, small.cycles_per_byte * 1.5);
  EXPECT_GT(large.l1_miss_rate, small.l1_miss_rate);
}

TEST_F(SerialTiming, SecondsScaleLinearlyWithFullLength) {
  const ac::Dfa dfa = dfa_for(200);
  const std::string text = workload::make_corpus(100000, 10);
  const auto half = estimate_serial(dfa, text, 1000000);
  const auto full = estimate_serial(dfa, text, 2000000);
  EXPECT_NEAR(full.seconds / half.seconds, 2.0, 1e-9);
}

TEST_F(SerialTiming, ThroughputInPlausibleSerialRange) {
  // The paper's serial baseline sits well under 2 Gbps.
  const ac::Dfa dfa = dfa_for(500);
  const std::string text = workload::make_corpus(200000, 11);
  const auto est = estimate_serial(dfa, text, text.size());
  const double gbps = static_cast<double>(text.size()) * 8.0 / est.seconds / 1e9;
  EXPECT_GT(gbps, 0.1);
  EXPECT_LT(gbps, 3.0);
}

TEST_F(SerialTiming, ValidatesInput) {
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"x"}));
  EXPECT_THROW(estimate_serial(dfa, "", 100), acgpu::Error);
  EXPECT_THROW(estimate_serial(dfa, "abc", 1), acgpu::Error);
}

}  // namespace
}  // namespace acgpu::cpumodel
