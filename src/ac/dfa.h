// DFA form of the Aho-Corasick machine (the paper's Section II, Fig. 2/3):
// failure transitions are compiled away so the matcher makes exactly one
// STT lookup per input byte.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "ac/automaton.h"
#include "ac/pattern_set.h"
#include "ac/stt_layout.h"

namespace acgpu::ac {

/// Input-byte normalisation baked into the STT columns: column b gets the
/// transition for map[b]. With identity_byte_map() the DFA matches exactly;
/// with ascii_fold_map() it matches case-insensitively (Snort's `nocase`)
/// at zero runtime cost — the table does the folding.
using ByteMap = std::array<std::uint8_t, 256>;
ByteMap identity_byte_map();
ByteMap ascii_fold_map();

/// Immutable AC DFA: the STT plus the output function (pattern-id lists per
/// match state, stored as CSR and referenced from the STT's match column),
/// the pattern lengths (needed to convert match *ends* into match *starts*
/// for the chunk-overlap dedup rule) and each state's trie depth.
class Dfa {
 public:
  /// Depths saturate here: depth() == kMaxDepth means kMaxDepth or more.
  static constexpr std::uint32_t kMaxDepth = 127;

  /// Compiles the NFA-form automaton. `pad_pitch_to` is forwarded to the
  /// SttMatrix (texture-friendly row alignment). When `byte_map` is given,
  /// the automaton must have been built over mapped patterns (see
  /// build_dfa_folded); column b is then filled with the transition for
  /// byte_map[b].
  Dfa(const Automaton& automaton, const PatternSet& patterns,
      std::uint32_t pad_pitch_to = 0,
      const std::optional<ByteMap>& byte_map = std::nullopt);

  std::uint32_t state_count() const { return stt_.rows(); }
  std::size_t pattern_count() const { return pattern_lengths_.size(); }

  const SttMatrix& stt() const { return stt_; }

  /// One-lookup transition.
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    return stt_.next(state, byte);
  }
  bool is_match(std::int32_t state) const { return stt_.output_id(state) != 0; }

  /// Length of the longest pattern prefix `state` stands for (its trie
  /// depth), saturated at kMaxDepth. After any input, the DFA's state is the
  /// longest suffix of the input that is a pattern prefix, so no match that
  /// a later byte completes can start more than depth() bytes back.
  std::uint32_t depth(std::int32_t state) const {
    return depth_[static_cast<std::size_t>(state)];
  }

  /// Pattern ids emitted at `state` (empty span for non-match states).
  /// Pointers remain valid for the Dfa's lifetime.
  const std::int32_t* output_begin(std::int32_t state) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(stt_.output_id(state))];
  }
  const std::int32_t* output_end(std::int32_t state) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(stt_.output_id(state)) + 1];
  }

  /// Pattern ids for a raw output id (the value stored in the STT match
  /// column; id 0 is the empty set). Used when expanding device match
  /// records on the host.
  const std::int32_t* id_output_begin(std::int32_t oid) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(oid)];
  }
  const std::int32_t* id_output_end(std::int32_t oid) const {
    return out_ids_.data() + out_begin_[static_cast<std::size_t>(oid) + 1];
  }
  std::size_t output_id_count() const { return out_begin_.size() - 1; }

  std::uint32_t pattern_length(std::int32_t id) const {
    return pattern_lengths_[static_cast<std::size_t>(id)];
  }
  const std::vector<std::uint32_t>& pattern_lengths() const {
    return pattern_lengths_;
  }
  /// The paper's X (chunk overlap).
  std::uint32_t max_pattern_length() const { return max_pattern_length_; }

  /// Device-side footprint of the table the paper ships to the GPU.
  std::size_t stt_bytes() const { return stt_.size_bytes(); }

  /// Raw output CSR (indexed by output id; id 0 is the empty set) and the
  /// pattern-id list — exposed so the GPU side can upload them verbatim.
  const std::vector<std::uint32_t>& output_offsets() const { return out_begin_; }
  const std::vector<std::int32_t>& output_ids() const { return out_ids_; }

  /// Binary round-trip of the complete DFA (STT + outputs + lengths). The
  /// format carries no depths: load() recomputes them by BFS over the STT,
  /// since the shortest input that reaches an AC DFA state is its trie
  /// string. load() throws Error on an entry that points outside its table:
  /// a transition outside [0, states), an output id outside
  /// [0, output_id_count()), an output CSR that is not monotonic within the
  /// id list, a pattern id without a length, a zero length, or a maximum
  /// length other than the longest pattern's.
  void save(std::ostream& out) const;
  static Dfa load(std::istream& in);

 private:
  Dfa() = default;

  SttMatrix stt_;
  // Output CSR indexed by output id (id 0 is the empty set).
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::int32_t> out_ids_;
  std::vector<std::uint32_t> pattern_lengths_;
  std::uint32_t max_pattern_length_ = 0;
  std::vector<std::uint8_t> depth_;  ///< per state, saturated at kMaxDepth
};

/// Convenience: patterns -> DFA in one call (builds the intermediate
/// automaton internally).
Dfa build_dfa(const PatternSet& patterns, std::uint32_t pad_pitch_to = 0);

/// Byte-normalising variant: patterns are mapped through `map` before the
/// automaton is built, and every STT column b carries the transition for
/// map[b]. With ascii_fold_map() this yields case-insensitive matching with
/// the standard matchers/kernels unchanged. Reported pattern ids refer to
/// the original (unmapped) pattern set.
Dfa build_dfa_folded(const PatternSet& patterns, const ByteMap& map,
                     std::uint32_t pad_pitch_to = 0);

}  // namespace acgpu::ac
