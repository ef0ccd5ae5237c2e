// Serialization robustness: loading any truncated or bit-flipped DFA/STT
// stream must throw acgpu::Error (never crash, never return garbage
// silently for structurally invalid headers).
#include <gtest/gtest.h>

#include <sstream>

#include "ac/dfa.h"
#include "ac/serial_matcher.h"
#include "util/error.h"
#include "util/rng.h"

namespace acgpu::ac {
namespace {

std::string serialized_paper_dfa() {
  const Dfa dfa = build_dfa(PatternSet({"he", "she", "his", "hers"}), 8);
  std::stringstream ss;
  dfa.save(ss);
  return ss.str();
}

TEST(SerializationFuzz, EveryTruncationThrows) {
  const std::string full = serialized_paper_dfa();
  // Sweep cut points (every byte near the header, sampled beyond).
  for (std::size_t cut = 0; cut < full.size(); cut += (cut < 64 ? 1 : 997)) {
    std::stringstream ss(full.substr(0, cut));
    EXPECT_THROW(Dfa::load(ss), Error) << "cut at " << cut;
  }
}

TEST(SerializationFuzz, HeaderBitFlipsThrowOrRoundTrip) {
  const std::string full = serialized_paper_dfa();
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    std::string corrupted = full;
    // Flip a bit in the first 24 bytes: magic + STT header. Any change to
    // the magic or to the geometry must be caught (geometry changes make
    // the body size mismatch -> truncated-read error).
    const std::size_t pos = rng.next_below(24);
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << rng.next_below(8)));
    if (corrupted == full) continue;
    std::stringstream ss(corrupted);
    try {
      const Dfa dfa = Dfa::load(ss);
      // A flip that enlarges padding-only pitch could load; the DFA must
      // still be self-consistent enough to walk without faulting.
      (void)dfa.next(0, 'h');
    } catch (const Error&) {
      // expected for almost all flips
    }
  }
}

/// Fails unless every table entry of `dfa` points inside its table: the
/// transitions at states, the state output ids into the output CSR, the CSR
/// into the pattern-id list and the pattern ids at lengths.
void expect_in_range(const Dfa& dfa, int round) {
  const std::uint32_t states = dfa.state_count();
  for (std::uint32_t s = 0; s < states; ++s) {
    const auto state = static_cast<std::int32_t>(s);
    for (int b = 0; b < 256; ++b) {
      const std::int32_t next = dfa.next(state, static_cast<std::uint8_t>(b));
      ASSERT_TRUE(next >= 0 && static_cast<std::uint32_t>(next) < states)
          << "round " << round << ": state " << s << " byte " << b << " -> " << next;
    }
    const std::int32_t oid = dfa.output_id(state);
    ASSERT_TRUE(oid >= 0 && static_cast<std::size_t>(oid) < dfa.output_id_count())
        << "round " << round << ": state " << s << " output id " << oid;
    ASSERT_LE(dfa.depth(state), Dfa::kMaxDepth);
  }
  const std::vector<std::uint32_t>& offsets = dfa.output_offsets();
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
    ASSERT_LE(offsets[i], offsets[i + 1]) << "round " << round;
  ASSERT_EQ(offsets.back(), dfa.output_ids().size()) << "round " << round;
  for (const std::int32_t id : dfa.output_ids())
    ASSERT_TRUE(id >= 0 && static_cast<std::size_t>(id) < dfa.pattern_count())
        << "round " << round << ": pattern id " << id;
}

TEST(SerializationFuzz, BodyCorruptionKeepsInvariantsCheckable) {
  // Corrupting the body may or may not be detectable (raw table data), but
  // a DFA that loads must be walkable and expandable: every entry points
  // inside its table. Byte values are drawn as often from the small
  // in-range ones as from the rest, so both verdicts occur.
  const std::string full = serialized_paper_dfa();
  Rng rng(2025);
  int loaded = 0;
  int rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string corrupted = full;
    const std::size_t pos = 24 + rng.next_below(corrupted.size() - 24);
    corrupted[pos] = static_cast<char>(rng.next_bool(0.5) ? rng.next_below(16)
                                                          : rng.next_below(256));
    std::stringstream ss(corrupted);
    try {
      const Dfa dfa = Dfa::load(ss);
      ++loaded;
      expect_in_range(dfa, round);
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SerializationFuzz, SttMatrixTruncationThrows) {
  SttMatrix m(7, 8);
  m.at(3, 100) = 42;
  std::stringstream ss;
  m.save(ss);
  const std::string full = ss.str();
  for (std::size_t cut : {0ul, 4ul, 8ul, 12ul, 15ul, full.size() - 1}) {
    std::stringstream cut_ss(full.substr(0, cut));
    EXPECT_THROW(SttMatrix::load(cut_ss), Error) << "cut " << cut;
  }
}

TEST(SerializationFuzz, RepeatedSaveLoadIsStable) {
  const Dfa original = build_dfa(PatternSet({"abc", "bcd", "cde"}), 8);
  std::stringstream s1;
  original.save(s1);
  const Dfa once = Dfa::load(s1);
  std::stringstream s2;
  once.save(s2);
  EXPECT_EQ(s1.str(), s2.str());
}

}  // namespace
}  // namespace acgpu::ac
