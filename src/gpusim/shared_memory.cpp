#include "gpusim/shared_memory.h"

#include <algorithm>
#include <array>
#include <utility>

namespace acgpu::gpusim {

BankCost bank_conflicts(std::span<const std::uint32_t> addrs, std::uint32_t banks,
                        std::uint32_t group, std::uint32_t active) {
  ACGPU_CHECK(banks > 0 && banks <= 64, "bank count " << banks << " out of range");
  ACGPU_CHECK(group > 0 && group <= 32, "conflict group " << group << " out of range");
  ACGPU_CHECK(addrs.size() <= 32, addrs.size() << " lanes exceed a warp");
  BankCost cost;

  for (std::size_t begin = 0; begin < addrs.size(); begin += group) {
    const std::size_t end = std::min(addrs.size(), begin + group);

    // Distinct words accessed within this half-warp. Lanes hitting the same
    // word are satisfied by one access (hardware broadcast); lanes hitting
    // different words on the same bank serialise.
    std::array<std::uint32_t, 32> words{};
    std::size_t n_words = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (((active >> i) & 1u) == 0) continue;
      const std::uint32_t word = addrs[i] / 4;  // successive words -> successive banks
      bool dup = false;
      for (std::size_t j = 0; j < n_words; ++j)
        if (words[j] == word) {
          dup = true;
          break;
        }
      if (!dup) words[n_words++] = word;
    }
    if (n_words == 0) continue;  // no active lane in this group

    std::array<std::uint32_t, 64> per_bank{};
    std::uint32_t degree = 1;  // a group always costs at least one access
    for (std::size_t j = 0; j < n_words; ++j)
      degree = std::max(degree, ++per_bank[words[j] % banks]);

    ++cost.groups;
    cost.total_degree += degree;
    cost.max_degree = std::max(cost.max_degree, degree);
  }
  return cost;
}

}  // namespace acgpu::gpusim
