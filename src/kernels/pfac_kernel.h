// GPU kernel for PFAC (Parallel Failureless Aho-Corasick, Lin et al.) —
// the related-work design the paper contrasts with: one thread per input
// BYTE, no failure transitions, each thread dies at the first absent edge.
// Included as a raw-kernel ablation (bench/ext_pfac_vs_ac,
// examples/dna_search); the Engine and its pipeline run the AC DFA only.
#pragma once

#include <cstdint>

#include "ac/pfac.h"
#include "gpusim/launcher.h"
#include "kernels/match_output.h"

namespace acgpu::kernels {

/// Device-resident failureless automaton: the STT texture. Terminal states
/// store their output id; the host expands ids to patterns.
class DevicePfac {
 public:
  /// Keeps a reference to `pfac` (host-side record expansion); it must
  /// outlive this object.
  DevicePfac(gpusim::DeviceMemory& mem, const ac::PfacAutomaton& pfac);

  const ac::PfacAutomaton& host_automaton() const { return *host_; }

  const gpusim::Texture2D& texture() const { return texture_; }
  std::uint32_t max_pattern_length() const { return max_pattern_length_; }

 private:
  const ac::PfacAutomaton* host_ = nullptr;
  gpusim::Texture2D texture_;
  std::uint32_t max_pattern_length_ = 0;
};

struct PfacLaunchSpec {
  std::uint32_t threads_per_block = 256;
  std::uint32_t match_capacity = 8;  ///< patterns starting at one position
  gpusim::LaunchOptions sim{};
};

struct PfacLaunchOutcome {
  gpusim::LaunchResult sim;
  std::uint64_t threads = 0;
  std::uint64_t blocks = 0;
  MatchBuffer::Collected matches;
};

/// One thread per text byte; matches are reported at their end positions,
/// consistent with every other matcher in the library.
PfacLaunchOutcome run_pfac_kernel(const gpusim::GpuConfig& config,
                                  gpusim::DeviceMemory& mem, const DevicePfac& dpfac,
                                  gpusim::DevAddr text_addr, std::uint64_t text_len,
                                  const PfacLaunchSpec& spec);

}  // namespace acgpu::kernels
