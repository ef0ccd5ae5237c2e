// Serial DFA matcher — the paper's single-core baseline (Figs 13/16).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"

namespace acgpu::ac {

/// Scans `text` through the DFA, one table lookup per byte, invoking
/// `sink(end_index, pattern_id)` for every occurrence. `base` is added to
/// reported end indices (used when scanning a window of a larger text).
/// Returns the final DFA state (callers resuming a scan can pass it back as
/// `start_state`).
template <typename Sink>
std::int32_t match_serial(const Dfa& dfa, std::string_view text, Sink&& sink,
                          std::uint64_t base = 0, std::int32_t start_state = 0) {
  std::int32_t state = start_state;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = dfa.next(state, static_cast<std::uint8_t>(text[i]));
    if (dfa.is_match(state)) {
      for (const std::int32_t* p = dfa.output_begin(state); p != dfa.output_end(state); ++p)
        sink(base + i, *p);
    }
  }
  return state;
}

/// Convenience wrappers.
std::vector<Match> find_all(const Dfa& dfa, std::string_view text);
std::uint64_t count_matches(const Dfa& dfa, std::string_view text);

}  // namespace acgpu::ac
