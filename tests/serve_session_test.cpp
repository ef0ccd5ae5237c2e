// Session boundary continuation: spanning matches reported exactly once
// with global offsets, carried DFA-state correctness, and the per-session
// quotas.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/pattern_set.h"
#include "ac/serial_matcher.h"
#include "util/rng.h"

namespace acgpu::serve {
namespace {

struct Compiled {
  ac::PatternSet patterns;
  ac::Dfa dfa;

  explicit Compiled(const std::vector<std::string>& pats)
      : patterns(pats), dfa(ac::build_dfa(patterns, 8)) {}
};

/// What the service's bulk scanner contributes for one chunk: every match
/// wholly contained in it (fresh DFA from the chunk's first byte), rebased
/// to global offsets. begin_chunk owns everything that spans in.
std::vector<ac::Match> bulk_matches(const ac::Dfa& dfa, std::string_view chunk,
                                    std::uint64_t base) {
  std::vector<ac::Match> out = ac::find_all(dfa, chunk);
  for (ac::Match& m : out) m.end += base;
  return out;
}

/// Streams `text` through a session in the given chunk sizes and returns
/// the union of continuation (spanning) and bulk (contained) matches — the
/// exact decomposition the service performs.
std::vector<ac::Match> stream_all(const Compiled& c, std::string_view text,
                                  const std::vector<std::size_t>& cuts) {
  Session session(1, c.dfa, SessionLimits{});
  std::size_t pos = 0;
  for (std::size_t len : cuts) {
    len = std::min(len, text.size() - pos);
    const std::string_view chunk = text.substr(pos, len);
    const std::uint64_t base = session.bytes_fed();
    session.begin_chunk(chunk);
    for (ac::Match m : bulk_matches(c.dfa, chunk, base)) session.deliver(m);
    pos += len;
    if (pos == text.size()) break;
  }
  EXPECT_EQ(pos, text.size()) << "cuts did not cover the text";
  auto out = session.take_matches();
  ac::normalize_matches(out);
  return out;
}

std::vector<ac::Match> reference(const Compiled& c, std::string_view text) {
  auto out = ac::find_all(c.dfa, text);
  ac::normalize_matches(out);
  return out;
}

std::vector<std::size_t> uniform_cuts(std::size_t n, std::size_t chunk) {
  return std::vector<std::size_t>((n + chunk - 1) / std::max<std::size_t>(chunk, 1),
                                  chunk);
}

TEST(ServeSession, PaperExampleEveryUniformChunking) {
  const Compiled c({"he", "she", "his", "hers"});
  const std::string text = "ushers and sheep hide his herbs ushers";
  const auto expected = reference(c, text);
  ASSERT_FALSE(expected.empty());
  for (std::size_t chunk = 1; chunk <= text.size() + 1; ++chunk)
    EXPECT_EQ(stream_all(c, text, uniform_cuts(text.size(), chunk)), expected)
        << "chunk=" << chunk;
}

TEST(ServeSession, OneByteFeedsSpanManyBoundaries) {
  // Every match longer than one byte spans a boundary; the continuation
  // must find all of them and the bulk scanner only the 1-byte ones.
  const Compiled c({"aaa", "ab", "aabab"});
  const std::string text = "aaababaababaaabab";
  const auto expected = reference(c, text);
  EXPECT_EQ(stream_all(c, text, uniform_cuts(text.size(), 1)), expected);
}

TEST(ServeSession, MatchEndingExactlyOnBoundaryIsBulkOnly) {
  // "abcd" occupies bytes 0..3 and the cut is at 4: the match is contained
  // in chunk 0 (bulk's job); the continuation must not duplicate it.
  const Compiled c({"abcd"});
  const std::string text = "abcdxxxx";
  Session session(1, c.dfa, SessionLimits{});
  session.begin_chunk(text.substr(0, 4));
  EXPECT_EQ(session.stats().spanning_matches, 0u);
  session.begin_chunk(text.substr(4));
  EXPECT_EQ(session.stats().spanning_matches, 0u);
  EXPECT_EQ(stream_all(c, text, {4, 4}), reference(c, text));
}

TEST(ServeSession, MatchStartingExactlyOnBoundaryIsBulkOnly) {
  // "abcd" starts at the cut (byte 4): contained in chunk 1.
  const Compiled c({"abcd"});
  const std::string text = "xxxxabcd";
  Session session(1, c.dfa, SessionLimits{});
  session.begin_chunk(text.substr(0, 4));
  session.begin_chunk(text.substr(4));
  EXPECT_EQ(session.stats().spanning_matches, 0u);
  EXPECT_EQ(stream_all(c, text, {4, 4}), reference(c, text));
}

TEST(ServeSession, StraddlingMatchReportedOnceByContinuation) {
  const Compiled c({"abcd"});
  const std::string text = "xxabcdxx";
  for (std::size_t cut = 3; cut <= 5; ++cut) {  // cuts inside the match
    Session session(1, c.dfa, SessionLimits{});
    session.begin_chunk(std::string_view(text).substr(0, cut));
    session.begin_chunk(std::string_view(text).substr(cut));
    EXPECT_EQ(session.stats().spanning_matches, 1u) << "cut=" << cut;
    const auto matches = session.take_matches();
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].end, 5u);  // global offset of 'd'
  }
}

TEST(ServeSession, DfaStateMatchesSerialWalkAfterLongAndShortChunks) {
  const Compiled c({"hers", "she"});
  const std::string text = "zzzzzzzzzzhershershe";
  Rng rng(99);
  for (int trial = 0; trial < 16; ++trial) {
    Session session(1, c.dfa, SessionLimits{});
    std::size_t pos = 0;
    std::int32_t expected_state = 0;
    while (pos < text.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.next_below(9), text.size() - pos);
      session.begin_chunk(std::string_view(text).substr(pos, len));
      for (std::size_t i = pos; i < pos + len; ++i)
        expected_state =
            c.dfa.next(expected_state, static_cast<std::uint8_t>(text[i]));
      // The re-rooted state must equal the serially-walked state: it is the
      // longest pattern-prefix suffix either way.
      EXPECT_EQ(session.dfa_state(), expected_state) << "pos=" << pos + len;
      pos += len;
    }
  }
}

TEST(ServeSession, EmptyChunksAreHarmlessEverywhere) {
  const Compiled c({"ab"});
  Session session(1, c.dfa, SessionLimits{});
  session.begin_chunk("");
  session.begin_chunk("a");
  session.begin_chunk("");
  session.begin_chunk("b");  // "ab" spans the a|b boundary
  session.begin_chunk("");
  EXPECT_EQ(session.stats().spanning_matches, 1u);
  EXPECT_EQ(session.stats().chunks_fed, 5u);
  EXPECT_EQ(session.bytes_fed(), 2u);
}

TEST(ServeSession, ByteQuotaRejectsBeforeMutating) {
  const Compiled c({"ab"});
  SessionLimits limits;
  limits.max_bytes = 4;
  Session session(1, c.dfa, limits);
  EXPECT_TRUE(session.admit_bytes(4).is_ok());
  session.begin_chunk("abcd");
  const Status over = session.admit_bytes(1);
  EXPECT_EQ(over.code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(session.bytes_fed(), 4u);  // rejected feed mutated nothing
}

TEST(ServeSession, MatchQuotaDropsAndMarksTruncated) {
  const Compiled c({"a"});
  SessionLimits limits;
  limits.max_matches = 2;
  Session session(1, c.dfa, limits);
  EXPECT_TRUE(session.deliver({0, 0}));
  EXPECT_TRUE(session.deliver({1, 0}));
  EXPECT_FALSE(session.deliver({2, 0}));
  EXPECT_FALSE(session.deliver({3, 0}));
  EXPECT_EQ(session.stats().matches_delivered, 2u);
  EXPECT_EQ(session.stats().matches_dropped, 2u);
  EXPECT_TRUE(session.stats().truncated);
  EXPECT_EQ(session.take_matches().size(), 2u);
}

TEST(ServeSession, TakeMatchesDrainsBuffer) {
  const Compiled c({"a"});
  Session session(1, c.dfa, SessionLimits{});
  session.deliver({0, 0});
  EXPECT_EQ(session.buffered(), 1u);
  EXPECT_EQ(session.take_matches().size(), 1u);
  EXPECT_EQ(session.buffered(), 0u);
  EXPECT_TRUE(session.take_matches().empty());
  EXPECT_EQ(session.stats().matches_delivered, 1u);  // stats survive the take
}

TEST(ServeSession, RandomizedChunkingsAgreeWithSerialReference) {
  const Compiled c({"he", "she", "his", "hers", "aaa"});
  Rng text_rng(4242);
  std::string text(997, '\0');
  for (char& ch : text)
    ch = "hersaix"[text_rng.next_below(7)];
  const auto expected = reference(c, text);
  ASSERT_FALSE(expected.empty());
  for (std::uint64_t salt = 0; salt < 24; ++salt) {
    Rng rng(derive_seed(salt, 5));
    std::vector<std::size_t> cuts;
    std::size_t covered = 0;
    while (covered < text.size()) {
      const std::size_t len = rng.next_below(40);  // includes empty chunks
      cuts.push_back(len);
      covered += len;
    }
    EXPECT_EQ(stream_all(c, text, cuts), expected) << "salt=" << salt;
  }
}

}  // namespace
}  // namespace acgpu::serve
