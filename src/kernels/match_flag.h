// Device transition-word encoding shared by every GPU STT (the Bellekens et
// al. packing, extended): bits 0-23 hold the target state, bits 24-30 the
// target's trie depth (saturating at 127), and bit 31 says whether the
// target accepts. One fetch then yields the next state, whether it matches
// and how far back a match through it can start, so the AC kernel needs no
// second read on accepting steps and can leave the chunk overlap early.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace acgpu::kernels {

inline constexpr std::uint32_t kMatchBit = 0x80000000u;
inline constexpr std::uint32_t kDepthShift = 24;
/// Largest depth the word holds; it stands for that depth or more.
inline constexpr std::uint32_t kMaxWordDepth = 0x7f;
inline constexpr std::uint32_t kStateMask = (1u << kDepthShift) - 1;
/// State ids stay below this: the STT of a DFA with this many states would
/// need 17.7 GB of device memory anyway.
inline constexpr std::uint64_t kMaxDeviceStates = std::uint64_t{1} << kDepthShift;

/// The top byte of every transition word into a state: its match flag in
/// bit 7 and its depth, saturated at kMaxWordDepth, in bits 0-6.
constexpr std::uint8_t target_byte(bool accepting, std::uint32_t depth) {
  return static_cast<std::uint8_t>((accepting ? 0x80u : 0u) | std::min(depth, kMaxWordDepth));
}

/// Packs a transition to `next`, whose target_byte is `top`.
constexpr std::uint32_t encode_transition(std::int32_t next, std::uint8_t top) {
  return static_cast<std::uint32_t>(next) | (std::uint32_t{top} << kDepthShift);
}

/// Target state of a transition word (flag and depth masked off).
constexpr std::int32_t transition_state(std::uint32_t word) {
  return static_cast<std::int32_t>(word & kStateMask);
}

/// Target depth of a transition word; kMaxWordDepth means that or more.
constexpr std::uint32_t transition_depth(std::uint32_t word) {
  return (word >> kDepthShift) & kMaxWordDepth;
}

/// Whether the transition word lands in a match state.
constexpr bool transition_accepts(std::uint32_t word) {
  return (word & kMatchBit) != 0;
}

/// Decodes the transition words a warp fetched. For every lane set in
/// `active`, writes the target state to `state` and its flag to `flagged`;
/// other lanes keep their state and come out unflagged. Returns whether any
/// lane is flagged: a warp with none skips the match emission.
template <std::size_t N>
bool decode_transitions(const std::array<std::uint32_t, N>& words,
                        const std::array<bool, N>& active,
                        std::array<std::int32_t, N>& state,
                        std::array<bool, N>& flagged) {
  bool any_flagged = false;
  for (std::size_t l = 0; l < N; ++l) {
    flagged[l] = active[l] && transition_accepts(words[l]);
    if (active[l]) state[l] = transition_state(words[l]);
    any_flagged |= flagged[l];
  }
  return any_flagged;
}

}  // namespace acgpu::kernels
