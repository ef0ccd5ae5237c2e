// Device-resident copy of a compiled AC DFA: the STT uploaded to (texture)
// memory — the phase-1 -> phase-2 handoff the paper describes ("construct
// the STT on a single CPU core, then copy it to the GPU"). The AC kernel
// stores (position, accepting state) records and the host expands them
// through host_dfa()'s output sets, so no other table goes to the device.
//
// The device STT differs from the host ac::SttMatrix in two ways:
//  - it has one column per byte class, not per byte. Bytes whose host
//    columns are equal in every row share a class: every state sends the
//    bytes in no pattern to the root, so the 20,000-word dictionary's 51
//    distinct bytes make 52 classes. The device alphabet is
//    the class ids, and the host maps every text through the class table
//    before it uploads it (ByteClasses::map). Classes are numbered by how
//    many trie edges they label, most first, so the hot columns share each
//    row's first 32 B texture line; the row pitch is the class count
//    rounded up to 8 words, and the host's output-id column, which no
//    device code reads, is not uploaded;
//  - each transition word carries its target's match flag and trie depth in
//    bits 24-31 (match_flag.h).
// The host table is left untouched.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
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

/// A DFA's byte classes: bytes whose STT columns are equal in every row
/// share a class, found in one row-major pass. Class ids run from 0 to
/// count - 1 in order of the trie edges each class labels, most first, ties
/// to the class with the smaller byte; the bytes in no pattern, which label
/// none, come last.
struct ByteClasses {
  std::array<std::uint8_t, 256> of_byte{};  ///< class id of each byte
  std::array<std::uint8_t, 256> first{};    ///< smallest byte of each class
  std::uint32_t count = 0;

  /// Device row pitch in words: count rounded up to a 32 B texture line.
  std::uint32_t pitch() const { return (count + 7) / 8 * 8; }

  /// `text` with every byte replaced by its class id: what the AC kernel
  /// scans.
  std::string map(std::string_view text) const;
};

ByteClasses byte_classes(const ac::Dfa& dfa);

class DeviceDfa {
 public:
  /// Ok when a DFA of `states` states fits the transition word's 24-bit
  /// state field; capacity_exceeded, naming the limit, otherwise.
  static Status check_state_count(std::uint64_t states);

  /// Uploads the STT over byte_classes(dfa), or over `classes` when the
  /// caller already has them. Keeps a reference to `dfa` (for host-side
  /// expansion of device match records); the Dfa must outlive this object.
  DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa);
  DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa,
            const ByteClasses& classes);

  /// Device bytes the upload takes from its (256-byte aligned) start: the
  /// class STT alone, states x ByteClasses::pitch() words. Compare with
  /// DeviceMemory::available().
  static std::size_t upload_bytes(const ac::Dfa& dfa);
  static std::size_t upload_bytes(const ac::Dfa& dfa, const ByteClasses& classes);

  const ac::Dfa& host_dfa() const { return *host_dfa_; }

  /// The device alphabet: every text the AC kernel reads holds class ids
  /// (classes().map).
  const ByteClasses& classes() const { return classes_; }

  /// 2-D texture over the STT (width classes().count, one row per state).
  /// Transition words carry flag and depth bits; decode them with
  /// transition_state().
  const gpusim::Texture2D& texture() const { return texture_; }

  /// Raw device address and row pitch of the STT — used by the
  /// SttPlacement::kGlobal ablation, which bypasses the texture path.
  gpusim::DevAddr stt_addr() const { return stt_addr_; }
  std::uint32_t stt_pitch_elems() const { return classes_.pitch(); }

  std::uint32_t state_count() const { return states_; }
  std::uint32_t max_pattern_length() const { return max_pattern_length_; }
  /// Device bytes of the class STT (upload_bytes).
  std::size_t stt_bytes() const { return stt_bytes_; }

 private:
  const ac::Dfa* host_dfa_ = nullptr;
  ByteClasses classes_;
  gpusim::Texture2D texture_;
  gpusim::DevAddr stt_addr_ = 0;
  std::uint32_t states_ = 0;
  std::uint32_t max_pattern_length_ = 0;
  std::size_t stt_bytes_ = 0;
};

}  // namespace acgpu::kernels
