#include "ac/dfa.h"

#include <gtest/gtest.h>

#include <sstream>

#include "ac/nfa_matcher.h"
#include "util/error.h"
#include "util/rng.h"

namespace acgpu::ac {
namespace {

Dfa paper_dfa() { return build_dfa(PatternSet({"he", "she", "his", "hers"})); }

// Section II's DFA walk of "ushers": 0 -u-> 0 -s-> 3 -h-> 4 -e-> 5 (emit
// he, she) -r-> 8 -s-> 9 (emit hers).
TEST(Dfa, PaperUshersWalk) {
  Dfa dfa = paper_dfa();
  std::int32_t s = 0;
  s = dfa.next(s, 'u');
  EXPECT_EQ(s, 0);
  s = dfa.next(s, 's');
  EXPECT_EQ(s, 3);
  s = dfa.next(s, 'h');
  EXPECT_EQ(s, 4);
  s = dfa.next(s, 'e');
  EXPECT_EQ(s, 5);
  EXPECT_TRUE(dfa.is_match(5));
  std::vector<std::int32_t> out(dfa.output_begin(5), dfa.output_end(5));
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1}));  // he, she
  s = dfa.next(s, 'r');
  EXPECT_EQ(s, 8);
  s = dfa.next(s, 's');
  EXPECT_EQ(s, 9);
  out.assign(dfa.output_begin(9), dfa.output_end(9));
  EXPECT_EQ(out, (std::vector<std::int32_t>{3}));  // hers
}

TEST(Dfa, SttShapeMatchesPaper) {
  Dfa dfa = paper_dfa();
  EXPECT_EQ(dfa.state_count(), 10u);
  EXPECT_EQ(dfa.byte_pitch(), SttMatrix::kColumns);  // 257, unpadded
  // h, e, s, i, r and every other byte: six columns a row.
  EXPECT_EQ(dfa.classes().count, 6u);
  EXPECT_EQ(dfa.stt_bytes(), 10u * 6 * 4);
}

TEST(Dfa, PitchPadding) {
  Dfa dfa = build_dfa(PatternSet({"abc"}), /*pad_pitch_to=*/8);
  EXPECT_EQ(dfa.byte_pitch(), 264u);  // 257 rounded up to a multiple of 8
  // Transitions unaffected by padding.
  EXPECT_EQ(dfa.next(0, 'a'), 1);
}

// The defining DFA property: delta(s, b) agrees with the NFA's
// goto-with-failure resolution for EVERY state and byte.
TEST(Dfa, AgreesWithNfaResolutionEverywhere) {
  PatternSet set({"he", "she", "his", "hers"});
  Automaton nfa(set);
  Dfa dfa(nfa, set);
  for (State s = 0; s < static_cast<State>(nfa.state_count()); ++s) {
    for (int b = 0; b < 256; ++b) {
      const auto byte = static_cast<std::uint8_t>(b);
      State expect = s;
      State next = nfa.goto_fn(expect, byte);
      while (next == Automaton::kFail) {
        expect = nfa.fail(expect);
        next = nfa.goto_fn(expect, byte);
      }
      EXPECT_EQ(dfa.next(s, byte), next) << "state " << s << " byte " << b;
    }
  }
}

TEST(Dfa, MatchColumnConsistentWithAutomatonOutputs) {
  PatternSet set({"ab", "bc", "abc", "c"});
  Automaton nfa(set);
  Dfa dfa(nfa, set);
  for (State s = 0; s < static_cast<State>(nfa.state_count()); ++s) {
    EXPECT_EQ(dfa.is_match(s), nfa.has_output(s));
    std::vector<std::int32_t> got(dfa.output_begin(s), dfa.output_end(s));
    EXPECT_EQ(got, nfa.output(s));
  }
}

TEST(Dfa, PatternLengthsPreserved) {
  Dfa dfa = paper_dfa();
  EXPECT_EQ(dfa.pattern_count(), 4u);
  EXPECT_EQ(dfa.pattern_length(0), 2u);
  EXPECT_EQ(dfa.pattern_length(3), 4u);
  EXPECT_EQ(dfa.max_pattern_length(), 4u);
}

TEST(Dfa, SaveLoadRoundTrip) {
  Dfa dfa = build_dfa(PatternSet({"he", "she", "his", "hers"}), 8);
  std::stringstream ss;
  dfa.save(ss);
  Dfa loaded = Dfa::load(ss);
  EXPECT_EQ(loaded.state_count(), dfa.state_count());
  EXPECT_EQ(loaded.byte_pitch(), dfa.byte_pitch());
  EXPECT_EQ(loaded.classes(), dfa.classes());
  EXPECT_EQ(loaded.stt_bytes(), dfa.stt_bytes());
  for (std::int32_t st = 0; st < static_cast<std::int32_t>(dfa.state_count()); ++st) {
    EXPECT_EQ(loaded.output_id(st), dfa.output_id(st));
    for (std::uint32_t k = 0; k < dfa.classes().count; ++k)
      EXPECT_EQ(loaded.row(st)[k], dfa.row(st)[k]) << "state " << st << " class " << k;
  }
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), ss.str());
  EXPECT_EQ(loaded.max_pattern_length(), dfa.max_pattern_length());
  EXPECT_EQ(loaded.pattern_lengths(), dfa.pattern_lengths());
  // Behavioural equality on a sample walk.
  std::int32_t a = 0, b = 0;
  for (char c : std::string("xushershishe")) {
    a = dfa.next(a, static_cast<std::uint8_t>(c));
    b = loaded.next(b, static_cast<std::uint8_t>(c));
    EXPECT_EQ(a, b);
    EXPECT_EQ(dfa.is_match(a), loaded.is_match(b));
  }
}

TEST(Dfa, LoadedDepthEqualsBuiltDepth) {
  // The .acdfa format carries no depths: load() recomputes them by BFS over
  // the STT, which must agree with the trie depth the builder used,
  // saturation included, for plain and folded tables alike.
  Rng rng(91);
  std::vector<std::string> random_patterns;
  for (int i = 0; i < 60; ++i) {
    std::string p;
    const auto len = rng.next_in(1, 10);
    for (std::uint64_t j = 0; j < len; ++j) p.push_back(static_cast<char>(rng.next_below(6)));
    random_patterns.push_back(std::move(p));
  }
  const Dfa dfas[] = {
      paper_dfa(),
      build_dfa(PatternSet(std::move(random_patterns)), 8),
      build_dfa(PatternSet({std::string(200, 'a'), std::string(150, 'b') + "a", "ab"})),
      build_dfa_folded(PatternSet({"Hers", "SHE", "his"}), ascii_fold_map()),
  };
  for (const Dfa& dfa : dfas) {
    std::stringstream ss;
    dfa.save(ss);
    const Dfa loaded = Dfa::load(ss);
    ASSERT_EQ(loaded.state_count(), dfa.state_count());
    for (std::uint32_t st = 0; st < dfa.state_count(); ++st) {
      const auto state = static_cast<std::int32_t>(st);
      ASSERT_EQ(loaded.depth(state), dfa.depth(state)) << "state " << st;
      ASSERT_LE(dfa.depth(state), Dfa::kMaxDepth);
    }
  }
  EXPECT_EQ(dfas[2].depth(dfas[2].next(0, 'b')), 1u);
}

/// Serialises `dfa`, sets STT entry (state, column) to `value` in the image,
/// and loads it back.
Dfa load_with_entry(const Dfa& dfa, std::uint32_t state, std::uint32_t column,
                    std::int32_t value) {
  std::stringstream ss;
  dfa.save(ss);
  std::string image = ss.str();
  // Two 8-byte magics and the STT's rows and pitch precede its body.
  const std::size_t at = 24 + (std::size_t{state} * dfa.byte_pitch() + column) * 4;
  image.replace(at, 4, reinterpret_cast<const char*>(&value), 4);
  std::stringstream in(image);
  return Dfa::load(in);
}

TEST(Dfa, LoadRejectsAnEntryOutsideItsTable) {
  // Kernels follow transitions as row numbers and the host expands records
  // through the state's output id, so neither may point past its table.
  const Dfa dfa = build_dfa(PatternSet({"he", "she", "his", "hers"}), 8);
  const auto states = static_cast<std::int32_t>(dfa.state_count());
  const auto oids = static_cast<std::int32_t>(dfa.output_id_count());
  const std::uint32_t col_e = SttMatrix::column_for_byte('e');
  EXPECT_EQ(load_with_entry(dfa, 1, col_e, states - 1).next(1, 'e'), states - 1);
  EXPECT_THROW(load_with_entry(dfa, 1, col_e, states), Error);
  EXPECT_THROW(load_with_entry(dfa, 1, col_e, -1), Error);
  EXPECT_THROW(load_with_entry(dfa, states - 1, 256, 1 << 24), Error);
  EXPECT_EQ(load_with_entry(dfa, 1, 0, oids - 1).output_id(1), oids - 1);
  EXPECT_THROW(load_with_entry(dfa, 1, 0, oids), Error);
  EXPECT_THROW(load_with_entry(dfa, 1, 0, -1), Error);
}

TEST(Dfa, LoadRejectsAMaxLengthThatIsNotTheLongestPatterns) {
  // The image ends with the pattern lengths (2, 3, 3, 4 for the paper's
  // he, she, his, hers) and then the maximum length, which sizes every
  // kernel's chunk overlap.
  const Dfa dfa = build_dfa(PatternSet({"he", "she", "his", "hers"}));
  std::stringstream ss;
  dfa.save(ss);
  const std::string image = ss.str();
  const auto load_with_tail = [&](std::size_t from_end, std::uint32_t value) {
    std::string copy = image;
    copy.replace(copy.size() - from_end, 4, reinterpret_cast<const char*>(&value), 4);
    std::stringstream in(copy);
    return Dfa::load(in);
  };
  EXPECT_EQ(load_with_tail(4, 4).max_pattern_length(), 4u);
  EXPECT_THROW(load_with_tail(4, 3), Error);  // hers' matches would straddle
  EXPECT_THROW(load_with_tail(4, 5), Error);
  EXPECT_THROW(load_with_tail(20, 0), Error);  // "he" of length 0
}

TEST(Dfa, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "not a dfa stream at all";
  EXPECT_THROW(Dfa::load(ss), Error);
}

TEST(Dfa, LoadRejectsTruncated) {
  Dfa dfa = paper_dfa();
  std::stringstream ss;
  dfa.save(ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(Dfa::load(cut), Error);
}

TEST(SttMatrix, SaveLoadRoundTrip) {
  SttMatrix m(5, 8);
  m.at(2, 0) = 7;
  m.at(4, 256) = -3;
  std::stringstream ss;
  m.save(ss);
  const SttMatrix loaded = SttMatrix::load(ss);
  EXPECT_TRUE(loaded == m);
}

TEST(SttMatrix, ColumnForByteLayout) {
  EXPECT_EQ(SttMatrix::column_for_byte(0), 1u);
  EXPECT_EQ(SttMatrix::column_for_byte(255), 256u);
}

TEST(SttMatrix, RejectsZeroRows) {
  EXPECT_THROW(SttMatrix(0), Error);
}

TEST(BuildDfa, RejectsEmptyPatternSet) {
  EXPECT_THROW(build_dfa(PatternSet{}), Error);
}

TEST(Dfa, RootSelfLoopsOnUnmatchedBytes) {
  Dfa dfa = paper_dfa();
  EXPECT_EQ(dfa.next(0, 'z'), 0);
  EXPECT_EQ(dfa.next(0, 0), 0);
  EXPECT_EQ(dfa.next(0, 255), 0);
}

// DFA states are never "fail": every transition lands on a real state.
TEST(Dfa, TotalTransitionFunction) {
  Rng rng(5);
  std::vector<std::string> patterns;
  for (int i = 0; i < 50; ++i) {
    std::string p;
    const auto len = rng.next_in(1, 8);
    for (std::uint64_t j = 0; j < len; ++j)
      p.push_back(static_cast<char>(rng.next_below(256)));
    patterns.push_back(std::move(p));
  }
  Dfa dfa = build_dfa(PatternSet(std::move(patterns)));
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s)
    for (int b = 0; b < 256; ++b) {
      const std::int32_t n = dfa.next(static_cast<std::int32_t>(s),
                                      static_cast<std::uint8_t>(b));
      EXPECT_GE(n, 0);
      EXPECT_LT(n, static_cast<std::int32_t>(dfa.state_count()));
    }
}

}  // namespace
}  // namespace acgpu::ac
