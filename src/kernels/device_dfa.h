// Device-resident copy of a compiled AC DFA: the STT uploaded to (texture)
// memory — the phase-1 -> phase-2 handoff the paper describes ("construct
// the STT on a single CPU core, then copy it to the GPU"). The AC kernel
// stores (position, accepting state) records and the host expands them
// through host_dfa()'s output sets, so no other table goes to the device.
//
// The device STT is the host table (ac::Dfa: one column per byte class,
// hot classes first; the 20,000-word dictionary's 51 distinct bytes make 52
// classes) with two additions:
//  - the row pitch is the class count rounded up to 8 words, so every row
//    starts a 32 B texture line, and the padding stays zero. The host's
//    output ids, which no device code reads, are not uploaded;
//  - each transition word carries its target's match flag and trie depth in
//    bits 24-31 (match_flag.h).
// The device alphabet is the class ids: the host maps every text through
// ac::ByteClasses::map before it uploads it.
#pragma once

#include <cstdint>
#include <vector>

#include "ac/dfa.h"
#include "gpusim/device_memory.h"
#include "gpusim/texture.h"
#include "util/error.h"

namespace acgpu::kernels {

/// Per state s, the top byte of every device transition word into s:
/// target_byte(is_match(s), depth(s)) (match_flag.h). One byte per state,
/// so the upload's lookup table is no larger than a match-flag table.
std::vector<std::uint8_t> state_target_bytes(const ac::Dfa& dfa);

class DeviceDfa {
 public:
  /// Ok when a DFA of `states` states fits the transition word's 24-bit
  /// state field; capacity_exceeded, naming the limit, otherwise.
  static Status check_state_count(std::uint64_t states);

  /// Uploads the DFA's class table. Keeps a reference to `dfa` (for
  /// host-side expansion of device match records); the Dfa must outlive this
  /// object.
  DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa);

  /// Device bytes the upload takes from its (256-byte aligned) start: the
  /// class STT alone, states x stt_pitch_elems() words. Compare with
  /// DeviceMemory::available().
  static std::size_t upload_bytes(const ac::Dfa& dfa);

  const ac::Dfa& host_dfa() const { return *host_dfa_; }

  /// 2-D texture over the STT (width host_dfa().classes().count, one row per
  /// state). Transition words carry flag and depth bits; decode them with
  /// transition_state().
  const gpusim::Texture2D& texture() const { return texture_; }

  /// Raw device address and row pitch of the STT — used by the
  /// SttPlacement::kGlobal ablation, which bypasses the texture path. The
  /// pitch is the class count rounded up to a 32 B texture line.
  gpusim::DevAddr stt_addr() const { return stt_addr_; }
  std::uint32_t stt_pitch_elems() const { return pitch_; }

  std::uint32_t state_count() const { return states_; }
  std::uint32_t max_pattern_length() const { return max_pattern_length_; }
  /// Device bytes of the class STT (upload_bytes).
  std::size_t stt_bytes() const { return stt_bytes_; }

 private:
  const ac::Dfa* host_dfa_ = nullptr;
  gpusim::Texture2D texture_;
  gpusim::DevAddr stt_addr_ = 0;
  std::uint32_t states_ = 0;
  std::uint32_t pitch_ = 0;
  std::uint32_t max_pattern_length_ = 0;
  std::size_t stt_bytes_ = 0;
};

}  // namespace acgpu::kernels
