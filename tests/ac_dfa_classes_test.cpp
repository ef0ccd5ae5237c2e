// The DFA's byte-class table, built straight from the trie, against the
// paper's byte-wide STT: over seeded random dictionaries (plain, ASCII-folded
// and merging byte maps, patterns past the 127-deep depth field), the
// classes and their order equal a partition refinement of the byte-wide
// table the NFA resolves, and next() agrees with it on every state and byte.
// An .acdfa image written by the byte-wide builder loads, matches and
// re-saves byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ac/dfa.h"
#include "ac/serial_matcher.h"
#include "util/rng.h"

namespace acgpu::ac {
namespace {

/// The paper's byte-wide table of the automaton over mapped patterns:
/// wide[s][b] is goto-with-failure on map[b], resolved through the NFA.
std::vector<std::array<State, 256>> byte_wide_table(const Automaton& nfa, const ByteMap& map) {
  std::vector<std::array<State, 256>> wide(nfa.state_count());
  for (State s = 0; s < static_cast<State>(nfa.state_count()); ++s)
    for (int b = 0; b < 256; ++b) {
      State from = s;
      State next = nfa.goto_fn(from, map[b]);
      while (next == Automaton::kFail) {
        from = nfa.fail(from);
        next = nfa.goto_fn(from, map[b]);
      }
      wide[s][b] = next;
    }
  return wide;
}

/// Partition refinement of `wide`, done the slow way: bytes share a class
/// when their columns agree in every row. Classes are ordered by the trie
/// edges they label, most first (an edge is a transition one level deeper,
/// by depths saturated at Dfa::kMaxDepth), ties to the smaller first byte.
ByteClasses refine(const std::vector<std::array<State, 256>>& wide, const Trie& trie) {
  const auto depth = [&](State s) { return std::min(trie.depth(s), Dfa::kMaxDepth); };
  std::map<std::vector<State>, std::vector<std::uint8_t>> bytes_of_column;
  for (int b = 0; b < 256; ++b) {
    std::vector<State> column;
    for (const auto& row : wide) column.push_back(row[b]);
    bytes_of_column[column].push_back(static_cast<std::uint8_t>(b));
  }
  std::vector<std::tuple<std::uint64_t, std::uint8_t, std::vector<std::uint8_t>>> classes;
  for (const auto& [column, bytes] : bytes_of_column) {
    std::uint64_t edges = 0;
    for (State s = 0; s < static_cast<State>(wide.size()); ++s)
      edges += depth(column[static_cast<std::size_t>(s)]) == depth(s) + 1;
    classes.emplace_back(edges, bytes.front(), bytes);
  }
  std::sort(classes.begin(), classes.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(b), std::get<1>(a)) < std::tie(std::get<0>(a), std::get<1>(b));
  });
  ByteClasses out;
  out.count = static_cast<std::uint32_t>(classes.size());
  for (std::uint32_t k = 0; k < out.count; ++k) {
    out.first[k] = std::get<1>(classes[k]);
    for (const std::uint8_t b : std::get<2>(classes[k]))
      out.of_byte[b] = static_cast<std::uint8_t>(k);
  }
  return out;
}

/// A map that merges bytes: each byte of `alphabet` goes to one of its
/// first `targets` bytes, so several pattern bytes fold into one.
ByteMap merging_map(const std::string& alphabet, std::uint64_t targets, Rng& rng) {
  ByteMap map = identity_byte_map();
  for (const char c : alphabet)
    map[static_cast<std::uint8_t>(c)] =
        static_cast<std::uint8_t>(alphabet[rng.next_below(targets)]);
  return map;
}

TEST(DfaClasses, TrieClassesEqualARefinementOfTheByteWideTable) {
  Rng rng(30);
  for (int round = 0; round < 60; ++round) {
    // An alphabet of 2-40 bytes from anywhere in 0-255.
    std::string alphabet;
    const auto size = rng.next_in(2, 40);
    while (alphabet.size() < size) {
      const auto c = static_cast<char>(rng.next_below(256));
      if (alphabet.find(c) == std::string::npos) alphabet.push_back(c);
    }
    std::vector<std::string> patterns;
    const auto count = rng.next_in(1, 30);
    for (std::uint64_t i = 0; i < count; ++i) {
      // One pattern in four runs past the depth field's 127.
      const auto len = rng.next_bool(0.25) ? rng.next_in(120, 200) : rng.next_in(1, 8);
      std::string p;
      for (std::uint64_t j = 0; j < len; ++j)
        p.push_back(alphabet[rng.next_below(alphabet.size())]);
      patterns.push_back(std::move(p));
    }
    const PatternSet set(patterns, /*dedup=*/false);
    const ByteMap map = round % 3 == 0   ? identity_byte_map()
                        : round % 3 == 1 ? ascii_fold_map()
                                         : merging_map(alphabet, rng.next_in(1, size), rng);
    const Dfa dfa = build_dfa_folded(set, map, round % 2 == 0 ? 0 : 8);

    std::vector<std::string> mapped;
    for (std::string p : patterns) {
      for (char& c : p) c = static_cast<char>(map[static_cast<std::uint8_t>(c)]);
      mapped.push_back(std::move(p));
    }
    const PatternSet mapped_set(std::move(mapped), /*dedup=*/false);
    const Automaton nfa(mapped_set);
    const auto wide = byte_wide_table(nfa, map);
    const std::string where = "round " + std::to_string(round);
    ASSERT_EQ(dfa.state_count(), wide.size()) << where;
    EXPECT_EQ(dfa.classes(), refine(wide, nfa.trie())) << where;
    EXPECT_EQ(dfa.stt_bytes(), wide.size() * dfa.classes().count * 4) << where;
    for (State s = 0; s < static_cast<State>(wide.size()); ++s)
      for (int b = 0; b < 256; ++b)
        ASSERT_EQ(dfa.next(s, static_cast<std::uint8_t>(b)), wide[s][b])
            << where << " state " << s << " byte " << b;

    // Load refines the byte-wide image save expands: the same classes and
    // rows, and the same image again.
    std::stringstream image;
    dfa.save(image);
    const Dfa loaded = Dfa::load(image);
    EXPECT_EQ(loaded.classes(), dfa.classes()) << where;
    EXPECT_EQ(loaded.byte_pitch(), dfa.byte_pitch()) << where;
    for (State s = 0; s < static_cast<State>(wide.size()); ++s)
      ASSERT_TRUE(std::equal(dfa.row(s), dfa.row(s) + dfa.classes().count, loaded.row(s)))
          << where << " state " << s;
    std::stringstream again;
    loaded.save(again);
    EXPECT_EQ(again.str(), image.str()) << where;
  }
}

TEST(DfaClasses, AnImageTheByteWideBuilderWroteLoadsAndResavesIdentically) {
  // Written by the byte-wide builder:
  // build_dfa_folded({he, SHE, His, hers}, ascii_fold_map(), 8).save(out).
  const std::string path = std::string(ACGPU_TEST_DATA_DIR) + "/folded_paper_pitch264.acdfa";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  const std::string image((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  std::stringstream in(image);
  const Dfa loaded = Dfa::load(in);
  const Dfa built =
      build_dfa_folded(PatternSet({"he", "SHE", "His", "hers"}), ascii_fold_map(), 8);
  EXPECT_EQ(loaded.byte_pitch(), 264u);
  EXPECT_EQ(loaded.classes(), built.classes());
  EXPECT_EQ(loaded.classes().of_byte['H'], loaded.classes().of_byte['h']);
  const std::string text = "uSHErs and HIS sHe, hErS";
  EXPECT_EQ(find_all(loaded, text), find_all(built, text));
  EXPECT_EQ(find_all(loaded, text).size(), 8u);  // she he hers, his, she he, he hers
  std::stringstream out;
  loaded.save(out);
  EXPECT_EQ(out.str(), image);
  std::stringstream rebuilt;
  built.save(rebuilt);
  EXPECT_EQ(rebuilt.str(), image);
}

}  // namespace
}  // namespace acgpu::ac
