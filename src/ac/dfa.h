// DFA form of the Aho-Corasick machine (the paper's Section II, Fig. 2/3):
// failure transitions are compiled away so the matcher makes exactly one
// table lookup per input byte. The table has one column per byte class
// (Bellekens et al.'s table compression, PAPERS.md), the layout the device
// uploads.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ac/automaton.h"
#include "ac/pattern_set.h"
#include "ac/stt_layout.h"

namespace acgpu::ac {

/// Input-byte normalisation baked into the classes: byte b takes the
/// transition for map[b]. With identity_byte_map() the DFA matches exactly;
/// with ascii_fold_map() it matches case-insensitively (Snort's `nocase`)
/// at zero runtime cost — the table does the folding.
using ByteMap = std::array<std::uint8_t, 256>;
ByteMap identity_byte_map();
ByteMap ascii_fold_map();

/// A DFA's byte classes: bytes whose transitions agree in every state share
/// a class. In an AC DFA that is one class per distinct pattern byte (after
/// the byte map) and one for every byte in no pattern, which every state
/// sends to the root. Class ids run from 0 to count - 1 in order of the trie
/// edges each class labels, most first (edges into depths past
/// Dfa::kMaxDepth go uncounted), ties to the class with the smaller byte, so
/// the hot columns share a row's first words; the bytes in no pattern, which
/// label none, come last.
struct ByteClasses {
  std::array<std::uint8_t, 256> of_byte{};  ///< class id of each byte
  std::array<std::uint8_t, 256> first{};    ///< smallest byte of each class
  std::uint32_t count = 0;

  /// `text` with every byte replaced by its class id: what the AC kernel
  /// scans.
  std::string map(std::string_view text) const;

  friend bool operator==(const ByteClasses&, const ByteClasses&) = default;
};

/// Immutable AC DFA: the transition table in byte-class space (one row of
/// classes().count words per state), each state's output id (an index into
/// the output CSR, 0 = no match), the pattern lengths (needed to convert
/// match *ends* into match *starts* for the chunk-overlap dedup rule) and
/// each state's trie depth. The paper's STT (Section II) has a column per
/// byte; this one has a column per class, and next() maps the byte first.
class Dfa {
 public:
  /// Depths saturate here: depth() == kMaxDepth means kMaxDepth or more.
  static constexpr std::uint32_t kMaxDepth = 127;

  /// Compiles the NFA-form automaton. `pad_pitch_to` rounds up the row pitch
  /// of the paper's byte-wide layout (byte_pitch()). When `byte_map` is
  /// given, the automaton must have been built over mapped patterns (see
  /// build_dfa_folded); byte b then takes the transition for byte_map[b].
  Dfa(const Automaton& automaton, const PatternSet& patterns,
      std::uint32_t pad_pitch_to = 0,
      const std::optional<ByteMap>& byte_map = std::nullopt);

  std::uint32_t state_count() const {
    return static_cast<std::uint32_t>(output_id_.size());
  }
  std::size_t pattern_count() const { return pattern_lengths_.size(); }

  /// The table's columns (see ByteClasses).
  const ByteClasses& classes() const { return classes_; }
  /// Row of `state`: entry k is the transition on class k's bytes.
  const std::int32_t* row(std::int32_t state) const {
    return rows_.data() + static_cast<std::size_t>(state) * classes_.count;
  }

  /// One-lookup transition.
  std::int32_t next(std::int32_t state, std::uint8_t byte) const {
    return row(state)[classes_.of_byte[byte]];
  }
  /// Output-set id of a state (0 = not a match state).
  std::int32_t output_id(std::int32_t state) const {
    return output_id_[static_cast<std::size_t>(state)];
  }
  bool is_match(std::int32_t state) const { return output_id(state) != 0; }

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
    return id_output_begin(output_id(state));
  }
  const std::int32_t* output_end(std::int32_t state) const {
    return id_output_end(output_id(state));
  }

  /// Pattern ids for a raw output id (id 0 is the empty set). Used when
  /// expanding output-id match records on the host.
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

  /// Bytes of the class table.
  std::size_t stt_bytes() const { return rows_.size() * sizeof(std::int32_t); }

  /// Raw output CSR (indexed by output id; id 0 is the empty set) and the
  /// pattern-id list — exposed so the GPU side can upload them verbatim.
  const std::vector<std::uint32_t>& output_offsets() const { return out_begin_; }
  const std::vector<std::int32_t>& output_ids() const { return out_ids_; }

  /// Row pitch, in words, of the paper's byte-wide STT (ac::SttMatrix:
  /// output id, then one column per byte): 257, or rounded up to the
  /// pad_pitch_to a build or a loaded image asked for. save() writes that
  /// layout and cpumodel simulates its addresses; no such table is held.
  std::uint32_t byte_pitch() const { return byte_pitch_; }

  /// Binary round-trip of the complete DFA in the byte-wide layout (an
  /// SttMatrix image, then outputs and lengths; save() writes the padding
  /// past column 256 as zeros). The format carries neither classes nor
  /// depths: load() finds the classes by partition refinement over the
  /// byte-wide rows, and the depths by BFS, since the shortest input that
  /// reaches an AC DFA state is its trie string. load() throws Error on an
  /// entry that points outside its table: a transition outside
  /// [0, states), an output id outside [0, output_id_count()), an output
  /// CSR that is not monotonic within the id list, a pattern id without a
  /// length, a zero length, or a maximum length other than the longest
  /// pattern's.
  void save(std::ostream& out) const;
  static Dfa load(std::istream& in);

 private:
  Dfa() = default;

  ByteClasses classes_;
  std::vector<std::int32_t> rows_;  ///< state_count() x classes_.count
  std::vector<std::int32_t> output_id_;  ///< per state
  // Output CSR indexed by output id (id 0 is the empty set).
  std::vector<std::uint32_t> out_begin_;
  std::vector<std::int32_t> out_ids_;
  std::vector<std::uint32_t> pattern_lengths_;
  std::uint32_t max_pattern_length_ = 0;
  std::uint32_t byte_pitch_ = SttMatrix::kColumns;
  std::vector<std::uint8_t> depth_;  ///< per state, saturated at kMaxDepth
};

/// Convenience: patterns -> DFA in one call (builds the intermediate
/// automaton internally).
Dfa build_dfa(const PatternSet& patterns, std::uint32_t pad_pitch_to = 0);

/// Byte-normalising variant: patterns are mapped through `map` before the
/// automaton is built, and every byte b takes the transition for map[b].
/// With ascii_fold_map() this yields case-insensitive matching with the
/// standard matchers/kernels unchanged. Reported pattern ids refer to
/// the original (unmapped) pattern set.
Dfa build_dfa_folded(const PatternSet& patterns, const ByteMap& map,
                     std::uint32_t pad_pitch_to = 0);

}  // namespace acgpu::ac
