// Tests for the seeded workload generator: determinism, family coverage,
// and the guarantees the adapters rely on (pattern length ceiling, no empty
// patterns, compilable pattern sets).
#include "oracle/workload_gen.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace acgpu::oracle {
namespace {

TEST(WorkloadGen, DeterministicPerSeedAndIteration) {
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Workload a = generate_workload(99, i);
    const Workload b = generate_workload(99, i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.patterns, b.patterns);
    EXPECT_EQ(a.text, b.text);
  }
}

TEST(WorkloadGen, DifferentSeedsDiffer) {
  const Workload a = generate_workload(1, 0);
  const Workload b = generate_workload(2, 0);
  EXPECT_TRUE(a.text != b.text || a.patterns != b.patterns);
}

TEST(WorkloadGen, CyclesThroughAllFamilies) {
  std::set<std::string> families;
  for (std::uint64_t i = 0; i < workload_family_count(); ++i)
    families.insert(workload_family_name(i));
  EXPECT_EQ(families.size(), workload_family_count());
  EXPECT_GE(workload_family_count(), 8u);
  // The iteration tag prefixes the family name.
  const Workload w = generate_workload(7, 1);
  EXPECT_EQ(w.name.rfind(workload_family_name(1), 0), 0u) << w.name;
}

TEST(WorkloadGen, EveryWorkloadCompilesAndRespectsGuarantees) {
  for (std::uint64_t i = 0; i < 4 * workload_family_count(); ++i) {
    const Workload w = generate_workload(5, i);
    ASSERT_FALSE(w.patterns.empty()) << w.name;
    for (const auto& p : w.patterns) {
      EXPECT_FALSE(p.empty()) << w.name;
      EXPECT_LE(p.size(), 120u) << w.name;
    }
    EXPECT_NO_THROW(CompiledWorkload{w}) << w.name;
  }
}

TEST(WorkloadGen, HardCasesAppearWithinOneCycle) {
  bool empty_or_tiny_text = false;
  bool pattern_longer_than_chunk = false;
  bool nul_byte = false;
  bool ff_byte = false;
  bool suffix_chain = false;
  for (std::uint64_t i = 0; i < 2 * workload_family_count(); ++i) {
    const Workload w = generate_workload(5, i);
    empty_or_tiny_text |= w.text.size() <= 40;
    if (w.text.find('\0') != std::string::npos) nul_byte = true;
    if (w.text.find('\xff') != std::string::npos) ff_byte = true;
    std::size_t longest = 0;
    for (const auto& p : w.patterns) longest = std::max(longest, p.size());
    pattern_longer_than_chunk |= longest > 32;
    // A suffix chain: some pattern is a proper suffix of another.
    for (const auto& a : w.patterns)
      for (const auto& b : w.patterns)
        if (a.size() < b.size() && b.compare(b.size() - a.size(), a.size(), a) == 0)
          suffix_chain = true;
  }
  EXPECT_TRUE(empty_or_tiny_text);
  EXPECT_TRUE(pattern_longer_than_chunk);
  EXPECT_TRUE(nul_byte);
  EXPECT_TRUE(ff_byte);
  EXPECT_TRUE(suffix_chain);
}

TEST(WorkloadGen, BoundaryFamilyCrossesEveryStagingWidthEdge) {
  // Exactly 4, 5, 64 or 65 distinct byte values: the last 2-bit, first
  // 6-bit, last 6-bit and first byte alphabets of the pipeline's staging.
  std::set<std::size_t> alphabets;
  for (std::uint64_t i = 0; i < 40 * workload_family_count(); ++i) {
    if (std::string(workload_family_name(i)) != "boundary") continue;
    const Workload w = generate_workload(42, i);
    const std::set<char> values(w.text.begin(), w.text.end());
    EXPECT_TRUE(values.size() == 4 || values.size() == 5 || values.size() == 64 ||
                values.size() == 65)
        << w.name << ": " << values.size() << " values";
    for (const std::string& p : w.patterns)
      for (const char c : p) EXPECT_TRUE(values.count(c)) << w.name;
    alphabets.insert(values.size());
  }
  EXPECT_EQ(alphabets, (std::set<std::size_t>{4, 5, 64, 65}));
}

}  // namespace
}  // namespace acgpu::oracle
