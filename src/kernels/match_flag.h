// Device transition-word encoding shared by every GPU STT: the target state
// in bits 0-30 and an "accepting" flag in bit 31 (the Bellekens et al.
// packing). One fetch then yields both the next state and whether it
// matches, so a kernel reads a state's output id only on flagged steps.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace acgpu::kernels {

inline constexpr std::uint32_t kMatchBit = 0x80000000u;

/// Packs a transition to `next`; `accepting` says whether `next` is a match
/// state.
constexpr std::uint32_t encode_transition(std::int32_t next, bool accepting) {
  return static_cast<std::uint32_t>(next) | (accepting ? kMatchBit : 0u);
}

/// Target state of a transition word (the flag masked off).
constexpr std::int32_t transition_state(std::uint32_t word) {
  return static_cast<std::int32_t>(word & ~kMatchBit);
}

/// Whether the transition word lands in a match state.
constexpr bool transition_accepts(std::uint32_t word) {
  return (word & kMatchBit) != 0;
}

/// Decodes the transition words a warp fetched. For every lane set in
/// `active`, writes the target state to `state` and its flag to `flagged`;
/// other lanes keep their state and come out unflagged. Returns whether any
/// lane is flagged: a warp with none skips the output-id fetch and the match
/// emission.
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
