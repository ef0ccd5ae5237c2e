#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ac/dfa.h"
#include "cpumodel/serial_timing.h"
#include "reference_serial_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/set_assoc_cache.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::cpumodel {
namespace {

using util::SetAssocCache;

TEST(SetAssocCache, HitsAfterFill) {
  SetAssocCache cache(1024, 64, 2);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(63));
  EXPECT_FALSE(cache.access(64));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
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

TEST(SetAssocCache, RecencyOrderMatchesTheTickReference) {
  // Keeping each set most-recent-first is the same LRU as stamping ways
  // with their last use: every access hits or misses alike.
  Rng rng(31);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t line = 1u << rng.next_in(0, 7);
    const auto assoc = static_cast<std::uint32_t>(rng.next_in(1, 12));
    const std::uint64_t bytes = std::uint64_t{line} * assoc << rng.next_in(0, 6);
    SetAssocCache cache(bytes, line, assoc);
    reference::TickLruCache ref(bytes, line, assoc);
    // Addresses from a span a few times the capacity, so sets fill,
    // evict and re-hit.
    const std::uint64_t span = bytes * (1 + rng.next_below(4));
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t addr = rng.next_below(span);
      ASSERT_EQ(cache.access(addr), ref.access(addr))
          << "round " << round << ", access " << i << ": " << bytes << " B, " << line
          << " B lines, " << assoc << " ways";
    }
    EXPECT_EQ(cache.hits(), ref.hits());
    EXPECT_EQ(cache.misses(), ref.misses());
  }
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

// --- One walk reports every prefix, its cache sets split across workers ---

/// Bit-for-bit equality of two estimates (EXPECT_EQ on doubles is exact).
void expect_same(const SerialEstimate& got, const SerialEstimate& want,
                 const std::string& where) {
  EXPECT_EQ(got.sampled_bytes, want.sampled_bytes) << where;
  EXPECT_EQ(got.cycles_per_byte, want.cycles_per_byte) << where;
  EXPECT_EQ(got.seconds, want.seconds) << where;
  EXPECT_EQ(got.l1_miss_rate, want.l1_miss_rate) << where;
  EXPECT_EQ(got.l2_miss_rate, want.l2_miss_rate) << where;
}

/// Checks estimate_serial_prefixes against a fresh reference walk of each
/// prefix, and estimate_serial against one of the whole sample.
void expect_prefixes_exact(const ac::Dfa& dfa, std::string_view sample,
                           const std::vector<std::size_t>& prefixes,
                           const CpuConfig& config, const std::string& where) {
  const std::vector<SerialEstimate> got =
      estimate_serial_prefixes(dfa, sample, prefixes, config);
  ASSERT_EQ(got.size(), prefixes.size()) << where;
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    const std::string_view prefix = sample.substr(0, prefixes[k]);
    expect_same(got[k], reference::estimate_serial(dfa, prefix, prefix.size(), config),
                where + ", prefix " + std::to_string(prefixes[k]));
  }
  const std::uint64_t full = 3 * sample.size() + 1;
  expect_same(estimate_serial(dfa, sample, full, config),
              reference::estimate_serial(dfa, sample, full, config),
              where + ", whole sample");
}

/// A random dictionary over the first `alphabet` byte values.
ac::Dfa random_dfa(Rng& rng, std::uint32_t alphabet) {
  std::vector<std::string> patterns(rng.next_in(1, 300));
  for (auto& p : patterns) {
    p.resize(rng.next_in(1, 12));
    for (auto& c : p) c = static_cast<char>(rng.next_below(alphabet));
  }
  return ac::build_dfa(ac::PatternSet(std::move(patterns)),
                       rng.next_bool(0.5) ? 8u : 0u);
}

std::string random_text(Rng& rng, std::uint32_t alphabet, std::size_t bytes) {
  std::string text(bytes, '\0');
  for (auto& c : text) c = static_cast<char>(rng.next_below(alphabet));
  return text;
}

/// 1-6 strictly ascending prefixes of a `bytes`-byte sample, the longest
/// usually the whole sample.
std::vector<std::size_t> random_prefixes(Rng& rng, std::size_t bytes) {
  std::vector<std::size_t> prefixes;
  for (std::uint64_t k = rng.next_in(1, 6); k > 0; --k)
    prefixes.push_back(static_cast<std::size_t>(rng.next_in(1, bytes)));
  if (rng.next_bool(0.7)) prefixes.push_back(bytes);
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  return prefixes;
}

CpuConfig random_geometry(Rng& rng) {
  CpuConfig c;
  c.base_cycles_per_byte = static_cast<std::uint32_t>(rng.next_in(1, 20));
  c.l2_hit_cycles = static_cast<std::uint32_t>(rng.next_in(0, 30));
  c.mem_cycles = static_cast<std::uint32_t>(rng.next_in(0, 400));
  c.l1_line_bytes = 1u << rng.next_in(3, 7);
  c.l1_assoc = static_cast<std::uint32_t>(rng.next_in(1, 8));
  c.l1_bytes = std::uint64_t{c.l1_line_bytes} * c.l1_assoc << rng.next_in(0, 7);
  c.l2_line_bytes = 1u << rng.next_in(3, 8);
  c.l2_assoc = static_cast<std::uint32_t>(rng.next_in(1, 16));
  c.l2_bytes = std::uint64_t{c.l2_line_bytes} * c.l2_assoc << rng.next_in(0, 12);
  return c;
}

TEST(SerialPrefixes, EveryPrefixMatchesAFreshReferenceWalk) {
  // Random dictionaries, samples and cache geometries. Half the samples
  // pass 512 KB, so they split across workers wherever the hardware and
  // the caches' common index bits allow.
  Rng rng(9001);
  static constexpr std::uint32_t kAlphabets[] = {2, 4, 26, 256};
  for (int round = 0; round < 8; ++round) {
    const std::uint32_t alphabet = kAlphabets[rng.next_below(4)];
    const ac::Dfa dfa = random_dfa(rng, alphabet);
    const std::size_t bytes = static_cast<std::size_t>(
        round % 2 == 0 ? rng.next_in(1, 5000) : rng.next_in(520u << 10, 900u << 10));
    const std::string sample = random_text(rng, alphabet, bytes);
    const CpuConfig config = random_geometry(rng);
    expect_prefixes_exact(
        dfa, sample, random_prefixes(rng, bytes), config,
        "round " + std::to_string(round) + " (" + std::to_string(config.l1_bytes) + "/" +
            std::to_string(config.l1_line_bytes) + "/" + std::to_string(config.l1_assoc) +
            " L1, " + std::to_string(config.l2_bytes) + "/" +
            std::to_string(config.l2_line_bytes) + "/" + std::to_string(config.l2_assoc) +
            " L2)");
  }
}

TEST_F(SerialTiming, Core2CalibrationLadderSplitsExactly) {
  // The dispatcher's calibration walk: a 1 MB sample (four shares of the
  // Core2's index bits 6-11 on four or more hardware threads) priced at
  // every ladder rung and in full.
  const ac::Dfa dfa = dfa_for(1000);
  const std::string sample = workload::make_corpus(1u << 20, 12);
  expect_prefixes_exact(dfa, sample, {64, 256, 1024, 4096, 16384, 65536, sample.size()},
                        CpuConfig::core2(), "core2");
}

TEST(SerialPrefixes, LineSizesThatDifferSplitOnTheirCommonIndexBits) {
  // L1 sets index bits 5-10 (32 B lines, 64 sets), L2 sets bits 7-16
  // (128 B lines, 1024 sets): the shares split on bits 7-10.
  CpuConfig config;
  config.l1_bytes = 8u << 10;
  config.l1_line_bytes = 32;
  config.l1_assoc = 4;
  config.l2_bytes = 1u << 20;
  config.l2_line_bytes = 128;
  config.l2_assoc = 8;
  Rng rng(4);
  const ac::Dfa dfa = random_dfa(rng, 26);
  const std::string sample = random_text(rng, 26, 800u << 10);
  expect_prefixes_exact(dfa, sample, {1, 1000, 300000, sample.size()}, config,
                        "32 B / 128 B lines");
}

TEST(SerialPrefixes, GeometryWithoutCommonIndexBitsRunsAsOneShare) {
  // L1 sets index bits 4-5 (16 B lines, 4 sets), L2 sets bits 6-13: no
  // bit indexes both, so one worker simulates every set.
  CpuConfig config;
  config.l1_bytes = 128;
  config.l1_line_bytes = 16;
  config.l1_assoc = 2;
  config.l2_bytes = 64u << 10;
  config.l2_line_bytes = 64;
  config.l2_assoc = 4;
  Rng rng(5);
  const ac::Dfa dfa = random_dfa(rng, 4);
  const std::string sample = random_text(rng, 4, 600u << 10);
  expect_prefixes_exact(dfa, sample, {7, 5000, sample.size()}, config,
                        "no common index bit");
}

TEST(SerialPrefixes, ValidatesPrefixes) {
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"x"}));
  using P = std::vector<std::size_t>;
  EXPECT_THROW(estimate_serial_prefixes(dfa, "abc", P{}), acgpu::Error);
  EXPECT_THROW(estimate_serial_prefixes(dfa, "abc", P{0, 2}), acgpu::Error);
  EXPECT_THROW(estimate_serial_prefixes(dfa, "abc", P{2, 2}), acgpu::Error);
  EXPECT_THROW(estimate_serial_prefixes(dfa, "abc", P{2, 1}), acgpu::Error);
  EXPECT_THROW(estimate_serial_prefixes(dfa, "abc", P{4}), acgpu::Error);
  EXPECT_EQ(estimate_serial_prefixes(dfa, "abc", P{1, 3}).size(), 2u);
}

}  // namespace
}  // namespace acgpu::cpumodel
