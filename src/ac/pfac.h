// PFAC (Parallel Failureless Aho-Corasick), Lin et al. [3] — the related-work
// variant the paper discusses and our extension ablation implements. The
// failure links are removed entirely: one matcher instance starts at *every*
// text position and simply dies on the first absent goto edge, so each
// instance only detects patterns that begin at its own start byte.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/match.h"
#include "ac/pattern_set.h"
#include "ac/stt_layout.h"

namespace acgpu::ac {

/// Failureless automaton: a trie flattened into an STT-like table where an
/// absent edge maps to the dead sentinel (-1) instead of a failure target.
/// Match column semantics are identical to Dfa's (output ids into a CSR).
class PfacAutomaton {
 public:
  explicit PfacAutomaton(const PatternSet& patterns);

  std::uint32_t state_count() const { return stt_.rows(); }
  const SttMatrix& stt() const { return stt_; }

  static constexpr std::int32_t kDead = -1;
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    return stt_.next(state, byte);
  }

  const std::int32_t* output_begin(std::int32_t state) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(stt_.output_id(state))];
  }
  const std::int32_t* output_end(std::int32_t state) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(stt_.output_id(state)) + 1];
  }

  /// Pattern ids for a raw output id (match-column value; 0 = empty set).
  const std::int32_t* id_output_begin(std::int32_t oid) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(oid)];
  }
  const std::int32_t* id_output_end(std::int32_t oid) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(oid) + 1];
  }

  /// Distinct output ids, the empty set (id 0) included.
  std::size_t output_id_count() const { return out_begin_.size() - 1; }

  std::uint32_t max_pattern_length() const { return max_pattern_length_; }
  std::uint32_t pattern_length(std::int32_t id) const {
    return pattern_lengths_[static_cast<std::size_t>(id)];
  }

  /// Scan the instance starting at text position `start`; emits matches that
  /// begin at `start` (their ends are reported, consistent with Match).
  template <typename Sink>
  void run_from(std::string_view text, std::size_t start, Sink&& sink) const {
    std::int32_t state = 0;
    const std::size_t limit =
        std::min(text.size(), start + static_cast<std::size_t>(max_pattern_length_));
    for (std::size_t i = start; i < limit; ++i) {
      state = next(state, static_cast<std::uint8_t>(text[i]));
      if (state == kDead) return;
      if (stt_.output_id(state) != 0)
        for (const std::int32_t* p = output_begin(state); p != output_end(state); ++p)
          sink(i, *p);
    }
  }

 private:
  SttMatrix stt_;
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::int32_t> out_ids_;
  std::vector<std::uint32_t> pattern_lengths_;
  std::uint32_t max_pattern_length_ = 0;
};

/// Serial PFAC matcher over the full text (one instance per position).
std::vector<Match> find_all_pfac(const PfacAutomaton& pfac, std::string_view text);

}  // namespace acgpu::ac
