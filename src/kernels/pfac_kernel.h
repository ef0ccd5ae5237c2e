// GPU kernel for PFAC (Parallel Failureless Aho-Corasick, Lin et al.) —
// the related-work design the paper contrasts with: one thread per input
// BYTE, no failure transitions, each thread dies at the first absent edge.
// Included as an extension ablation (bench/ext_pfac_vs_ac).
#pragma once

#include <cstdint>

#include "ac/pfac.h"
#include "gpusim/launcher.h"
#include "gpusim/stream.h"
#include "kernels/match_output.h"

namespace acgpu::kernels {

/// Device-resident failureless automaton: STT texture + terminal-output CSR.
class DevicePfac {
 public:
  /// Keeps a reference to `pfac` (host-side record expansion); it must
  /// outlive this object.
  DevicePfac(gpusim::DeviceMemory& mem, const ac::PfacAutomaton& pfac);

  /// Device bytes the upload spans from its first (256-byte aligned)
  /// allocation to its last byte: compare with DeviceMemory::available().
  static std::size_t upload_bytes(const ac::PfacAutomaton& pfac);

  const ac::PfacAutomaton& host_automaton() const { return *host_; }

  const gpusim::Texture2D& texture() const { return texture_; }
  gpusim::DevAddr out_begin_addr() const { return out_begin_addr_; }
  gpusim::DevAddr out_ids_addr() const { return out_ids_addr_; }
  std::uint32_t max_pattern_length() const { return max_pattern_length_; }

 private:
  const ac::PfacAutomaton* host_ = nullptr;
  gpusim::Texture2D texture_;
  gpusim::DevAddr out_begin_addr_ = 0;
  gpusim::DevAddr out_ids_addr_ = 0;
  std::uint32_t max_pattern_length_ = 0;
};

struct PfacLaunchSpec {
  std::uint32_t threads_per_block = 256;
  std::uint32_t match_capacity = 8;  ///< patterns starting at one position
  std::uint32_t compute_per_byte = 6;
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

/// Stream-aware variant (see run_ac_kernel_stream): the launch is enqueued
/// on `stream` of the StreamSim's timeline; config/memory come from it.
PfacLaunchOutcome run_pfac_kernel_stream(gpusim::StreamSim& streams,
                                         gpusim::StreamId stream,
                                         const DevicePfac& dpfac,
                                         gpusim::DevAddr text_addr,
                                         std::uint64_t text_len,
                                         const PfacLaunchSpec& spec,
                                         std::string label = {});

}  // namespace acgpu::kernels
