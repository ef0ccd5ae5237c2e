#include "ac/compressed_stt.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ac/serial_matcher.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::ac {
namespace {

TEST(CompressedStt, EveryTransitionMatchesDense) {
  const Dfa dfa = build_dfa(PatternSet({"he", "she", "his", "hers"}));
  const CompressedStt c(dfa);
  ASSERT_EQ(c.state_count(), dfa.state_count());
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s)
    for (int b = 0; b < 256; ++b)
      EXPECT_EQ(c.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)),
                dfa.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)))
          << "state " << s << " byte " << b;
}

TEST(CompressedStt, MatchColumnPreserved) {
  const Dfa dfa = build_dfa(PatternSet({"ab", "abc", "c"}));
  const CompressedStt c(dfa);
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s)
    EXPECT_EQ(c.output_id(static_cast<std::int32_t>(s)),
              dfa.output_id(static_cast<std::int32_t>(s)));
}

TEST(CompressedStt, RandomDfaEquivalence) {
  Rng rng(3);
  std::vector<std::string> patterns;
  for (int i = 0; i < 120; ++i) {
    std::string p;
    const auto len = rng.next_in(1, 9);
    for (std::uint64_t j = 0; j < len; ++j)
      p.push_back(static_cast<char>('a' + rng.next_below(5)));
    patterns.push_back(std::move(p));
  }
  const Dfa dfa = build_dfa(PatternSet(std::move(patterns)));
  const CompressedStt c(dfa);
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s)
    for (int b = 0; b < 256; ++b)
      ASSERT_EQ(c.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)),
                dfa.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)));
}

TEST(CompressedStt, ClassSpaceRowsMatchDenseAtEveryWidth) {
  // One bitmap word per 32 classes: 1 for a folded dictionary (each letter
  // class holds two bytes), 2 for 40-odd classes, 8 when every byte value
  // is its own class.
  std::vector<std::string> all_bytes, forty;
  for (int b = 0; b < 256; b += 4)
    all_bytes.push_back(std::string{static_cast<char>(b), static_cast<char>(b + 1),
                                    static_cast<char>(b + 2), static_cast<char>(b + 3)});
  for (char c = '0'; c <= 'z' && forty.size() < 40; ++c) forty.push_back({c, c, '!'});
  const Dfa dfas[] = {
      build_dfa_folded(PatternSet({"Attack", "EVIL", "evil-agent", "tAcK"}),
                       ascii_fold_map()),
      build_dfa(PatternSet(forty)),
      build_dfa(PatternSet(all_bytes)),
  };
  const std::uint32_t words[] = {1, 2, 8};
  for (std::size_t d = 0; d < std::size(dfas); ++d) {
    const Dfa& dfa = dfas[d];
    const CompressedStt c(dfa);
    EXPECT_EQ(c.bitmap_words(), words[d]) << dfa.classes().count << " classes";
    EXPECT_EQ(c.root_row().size(), dfa.classes().count);
    for (std::uint32_t s = 0; s < dfa.state_count(); ++s)
      for (int b = 0; b < 256; ++b)
        ASSERT_EQ(c.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)),
                  dfa.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b)))
            << "dfa " << d << " state " << s << " byte " << b;
  }
}

TEST(CompressedStt, MatcherEqualsSerial) {
  const std::string corpus = workload::make_corpus(30000, 44);
  workload::ExtractConfig ec;
  ec.count = 80;
  const Dfa dfa = build_dfa(workload::extract_patterns(corpus, ec));
  const CompressedStt c(dfa);
  CollectSink sink;
  match_compressed(c, dfa, corpus, sink);
  auto got = std::move(sink.matches());
  std::sort(got.begin(), got.end());
  auto expect = find_all(dfa, corpus);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(CompressedStt, CompressesRealDictionaries) {
  const std::string corpus = workload::make_corpus(1 << 20, 45);
  workload::ExtractConfig ec;
  ec.count = 2000;
  ec.word_aligned = true;
  const Dfa dfa = build_dfa(workload::extract_patterns(corpus, ec));
  const CompressedStt c(dfa);
  // Deep states differ from the root in ~1 byte, so real dictionaries
  // compress by an order of magnitude or more.
  EXPECT_GT(c.compression_ratio(), 5.0);
  EXPECT_LT(c.size_bytes(), dfa.stt_bytes());
}

TEST(CompressedStt, SinglePatternExtremeCompression) {
  const Dfa dfa = build_dfa(PatternSet({"abcdefgh"}));
  const CompressedStt c(dfa);
  EXPECT_GT(c.compression_ratio(), 3.0);
}

TEST(CompressedStt, RootRowFallback) {
  // Transitions absent everywhere must resolve through the root row.
  const Dfa dfa = build_dfa(PatternSet({"zz"}));
  const CompressedStt c(dfa);
  const std::int32_t s1 = c.next(0, 'z');
  EXPECT_EQ(c.next(s1, 'a'), 0);   // falls back to root: no 'a' edge anywhere
  EXPECT_EQ(c.next(s1, 'z'), dfa.next(s1, 'z'));
}

TEST(CompressedStt, EmptyDfaRejected) {
  EXPECT_THROW(build_dfa(PatternSet{}), acgpu::Error);
}

}  // namespace
}  // namespace acgpu::ac
