// Per-block shared memory: storage plus the 16-bank conflict model
// (Section IV of the paper — the diagonal store scheme exists to make the
// degree computed here equal to 1).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.h"

namespace acgpu::gpusim {

/// Result of running one warp access through the bank model.
struct BankCost {
  std::uint32_t groups = 0;        ///< conflict groups (half-warps) processed
  std::uint32_t total_degree = 0;  ///< sum of per-group conflict degrees
  std::uint32_t max_degree = 0;    ///< worst group
};

/// Every lane of a warp takes part (bank_conflicts' default mask).
inline constexpr std::uint32_t kAllLanes = ~0u;

/// Computes conflict degrees for one warp-level shared access. `addrs[l]` is
/// lane l's byte address in shared-memory space (at most 32 lanes), and lane
/// l takes part when bit l of `active` is set. Lanes are grouped by lane
/// index, `group` to a group (16 = half-warp on GT200), so a masked lane
/// leaves the lanes after it in their own half-warp; a group with no active
/// lane costs nothing. Within a group, the degree is the maximum number of
/// *distinct words* mapped to one bank; all lanes reading the same word
/// count once (hardware broadcast).
BankCost bank_conflicts(std::span<const std::uint32_t> addrs, std::uint32_t banks,
                        std::uint32_t group, std::uint32_t active = kAllLanes);

/// Storage for one resident block's shared memory.
class SharedMemory {
 public:
  explicit SharedMemory(std::uint32_t bytes) : bytes_(bytes, 0) {
    ACGPU_CHECK(bytes > 0, "SharedMemory: zero size");
  }

  std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }

  std::uint8_t load_u8(std::uint32_t a) const {
    bounds_check(a, 1);
    return bytes_[a];
  }
  std::uint32_t load_u32(std::uint32_t a) const {
    bounds_check(a, 4);
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + a, 4);
    return v;
  }
  void store_u8(std::uint32_t a, std::uint8_t v) {
    bounds_check(a, 1);
    bytes_[a] = v;
  }
  void store_u32(std::uint32_t a, std::uint32_t v) {
    bounds_check(a, 4);
    std::memcpy(bytes_.data() + a, &v, 4);
  }

  void clear() { std::fill(bytes_.begin(), bytes_.end(), std::uint8_t{0}); }

 private:
  void bounds_check(std::uint32_t a, std::uint32_t n) const {
    ACGPU_CHECK(static_cast<std::size_t>(a) + n <= bytes_.size(),
                "shared memory access [" << a << ", " << a + n << ") out of bounds (size "
                                         << bytes_.size() << ")");
  }

  std::vector<std::uint8_t> bytes_;
};

}  // namespace acgpu::gpusim
