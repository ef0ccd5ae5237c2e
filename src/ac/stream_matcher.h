// Incremental (streaming) matching: feed the text in arbitrary slices and
// get exactly the matches a single pass would produce. This is how an IDS
// consumes reassembled TCP streams — patterns may straddle feed boundaries,
// which the carried DFA state handles for free.
#pragma once

#include <cstdint>
#include <string_view>

#include "ac/dfa.h"
#include "ac/match.h"

namespace acgpu::ac {

class StreamMatcher {
 public:
  /// The Dfa must outlive the matcher.
  explicit StreamMatcher(const Dfa& dfa) : dfa_(&dfa) {}

  /// Scans the next slice; reported match ends are absolute offsets into
  /// the concatenation of everything fed so far. Matches are emitted in
  /// discovery (feed) order — see the ordering contract in ac/match.h:
  /// normalize with ac::normalize_matches before comparing against a batch
  /// matcher's output.
  template <typename Sink>
  void feed(std::string_view slice, Sink&& sink) {
    std::int32_t state = state_;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      state = dfa_->next(state, static_cast<std::uint8_t>(slice[i]));
      if (dfa_->is_match(state)) {
        for (const std::int32_t* p = dfa_->output_begin(state);
             p != dfa_->output_end(state); ++p)
          sink(consumed_ + i, *p);
      }
    }
    state_ = state;
    consumed_ += slice.size();
  }

  /// Bytes consumed across all feeds.
  std::uint64_t bytes_consumed() const { return consumed_; }
  /// Current DFA state (0 = root).
  std::int32_t state() const { return state_; }
  /// Forget all history; the next feed starts a fresh text.
  void reset() {
    state_ = 0;
    consumed_ = 0;
  }

 private:
  const Dfa* dfa_;
  std::int32_t state_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace acgpu::ac
