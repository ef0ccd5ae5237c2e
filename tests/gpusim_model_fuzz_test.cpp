// Property fuzz tests: the fast cost-model implementations (coalescer and
// bank-conflict calculator) must agree with brute-force reference
// implementations on thousands of random access patterns.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gpusim/coalescer.h"
#include "gpusim/shared_memory.h"
#include "util/rng.h"

namespace acgpu::gpusim {
namespace {

std::uint32_t brute_force_segments(const std::vector<DevAddr>& addrs,
                                   std::uint32_t width, std::uint32_t segment) {
  std::set<DevAddr> segs;
  for (DevAddr a : addrs)
    for (DevAddr byte = a; byte < a + width; ++byte) segs.insert(byte / segment);
  return static_cast<std::uint32_t>(segs.size());
}

TEST(CoalescerFuzz, AgreesWithBruteForce) {
  Rng rng(1001);
  for (int round = 0; round < 500; ++round) {
    const std::uint32_t lanes = 1 + static_cast<std::uint32_t>(rng.next_below(32));
    const std::uint32_t width = rng.next_bool(0.5) ? 1 : 4;
    const std::uint32_t segment = 32u << rng.next_below(3);  // 32/64/128
    std::vector<DevAddr> addrs;
    for (std::uint32_t l = 0; l < lanes; ++l)
      addrs.push_back(rng.next_below(1 << 16));
    EXPECT_EQ(coalesce(addrs, width, segment).transactions,
              brute_force_segments(addrs, width, segment))
        << "round " << round;
  }
}

struct BruteBankCost {
  std::uint32_t total_degree = 0;
  std::uint32_t max_degree = 0;
};

BruteBankCost brute_force_conflicts(const std::vector<std::uint32_t>& addrs,
                                    std::uint32_t banks, std::uint32_t group,
                                    std::uint32_t active) {
  BruteBankCost cost;
  for (std::size_t begin = 0; begin < addrs.size(); begin += group) {
    const std::size_t end = std::min(addrs.size(), begin + group);
    std::set<std::uint32_t> words;
    for (std::size_t i = begin; i < end; ++i)
      if ((active >> i) & 1u) words.insert(addrs[i] / 4);
    if (words.empty()) continue;
    std::vector<std::uint32_t> per_bank(banks, 0);
    std::uint32_t degree = 1;
    for (std::uint32_t word : words)
      degree = std::max(degree, ++per_bank[word % banks]);
    cost.total_degree += degree;
    cost.max_degree = std::max(cost.max_degree, degree);
  }
  return cost;
}

TEST(BankConflictFuzz, AgreesWithBruteForce) {
  Rng rng(1002);
  for (int round = 0; round < 500; ++round) {
    const std::uint32_t lanes = 1 + static_cast<std::uint32_t>(rng.next_below(32));
    const std::uint32_t banks = rng.next_bool(0.5) ? 16 : 32;
    const std::uint32_t group = rng.next_bool(0.5) ? 16 : 32;
    std::vector<std::uint32_t> addrs;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      // Mix of strided and random patterns to hit broadcast/conflict paths.
      addrs.push_back(rng.next_bool(0.3)
                          ? l * static_cast<std::uint32_t>(rng.next_in(1, 64)) * 4
                          : static_cast<std::uint32_t>(rng.next_below(4096)));
    }
    // Half the rounds mask lanes at random, as divergent lanes do.
    std::uint32_t active = kAllLanes;
    if (rng.next_bool(0.5))
      for (std::uint32_t l = 0; l < lanes; ++l)
        if (rng.next_bool(0.3)) active &= ~(1u << l);
    const BankCost fast = bank_conflicts(addrs, banks, group, active);
    const BruteBankCost slow = brute_force_conflicts(addrs, banks, group, active);
    EXPECT_EQ(fast.total_degree, slow.total_degree) << "round " << round;
    EXPECT_EQ(fast.max_degree, slow.max_degree) << "round " << round;
  }
}

TEST(CoalescerFuzz, TransactionsBoundedByLanesAndSpan) {
  Rng rng(1003);
  for (int round = 0; round < 200; ++round) {
    std::vector<DevAddr> addrs;
    const std::uint32_t lanes = 1 + static_cast<std::uint32_t>(rng.next_below(32));
    for (std::uint32_t l = 0; l < lanes; ++l) addrs.push_back(rng.next_below(1 << 20));
    const auto r = coalesce(addrs, 4, 128);
    EXPECT_GE(r.transactions, 1u);
    EXPECT_LE(r.transactions, lanes * 2);  // a 4B access spans <= 2 segments
    EXPECT_EQ(r.bytes, static_cast<std::uint64_t>(r.transactions) * 128);
  }
}

}  // namespace
}  // namespace acgpu::gpusim
