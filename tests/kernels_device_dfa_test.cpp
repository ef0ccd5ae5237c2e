// The device STT: one column per byte class, whose every byte the host
// table sends to the same state, classes ordered by the trie edges they
// label; and the transition-word encoding: every DeviceDfa entry decodes back
// to the host table, the match flag is set exactly on transitions into
// accepting states, and the depth field carries the target's saturated trie
// depth.
#include "kernels/device_dfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "kernels/match_flag.h"
#include "oracle/matcher.h"
#include "oracle/workload_gen.h"

namespace acgpu::kernels {
namespace {

/// The device words of `ddfa`'s STT, row-major at its pitch.
std::vector<std::uint32_t> device_words(const gpusim::DeviceMemory& mem,
                                        const DeviceDfa& ddfa) {
  std::vector<std::uint32_t> words(ddfa.stt_bytes() / 4);
  for (std::size_t i = 0; i < words.size(); ++i)
    words[i] = mem.load_u32(ddfa.stt_addr() + i * 4);
  return words;
}

/// Uploads `dfa` and checks every word the device holds against the host
/// table, failing at the first mismatch: the word at byte b's class decodes
/// to the host's transition on b, for all 256 bytes, and the padding past
/// the last class is zero. Returns the flagged-word count.
std::size_t expect_decodes_to_host(const ac::Dfa& dfa, const std::string& label) {
  gpusim::DeviceMemory mem(
      std::max<std::size_t>(1 << 20, DeviceDfa::upload_bytes(dfa) + (1 << 16)));
  const DeviceDfa ddfa(mem, dfa);
  const ac::ByteClasses& classes = dfa.classes();
  EXPECT_EQ(ddfa.stt_pitch_elems() % 8, 0u) << label;
  EXPECT_LT(ddfa.stt_pitch_elems() - classes.count, 8u) << label;
  EXPECT_EQ(ddfa.stt_bytes(), std::size_t{dfa.state_count()} * ddfa.stt_pitch_elems() * 4)
      << label;
  const std::vector<std::uint32_t> words = device_words(mem, ddfa);
  std::size_t flagged = 0;
  for (std::uint32_t s = 0; s < dfa.state_count(); ++s) {
    const std::uint32_t* row = words.data() + std::size_t{s} * ddfa.stt_pitch_elems();
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t c = classes.of_byte[b];
      const std::uint32_t word = row[c];
      const std::int32_t host =
          dfa.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b));
      if (c >= classes.count || transition_state(word) != host ||
          transition_accepts(word) != dfa.is_match(host) ||
          transition_depth(word) != dfa.depth(host) ||
          ddfa.texture().fetch(c, s) != static_cast<std::int32_t>(word)) {
        ADD_FAILURE() << label << ": state " << s << " byte " << b << " (class " << c
                      << ") holds 0x" << std::hex << word << ", host entry " << std::dec
                      << host;
        return flagged;
      }
    }
    for (std::uint32_t c = 0; c < ddfa.stt_pitch_elems(); ++c) {
      if (c >= classes.count && row[c] != 0) {
        ADD_FAILURE() << label << ": state " << s << " padding word " << c << " is 0x"
                      << std::hex << row[c];
        return flagged;
      }
      flagged += c < classes.count && transition_accepts(row[c]);
    }
  }
  return flagged;
}

TEST(DeviceDfa, EncodingRoundTripsOverOracleFamilies) {
  const std::size_t families = oracle::workload_family_count();
  for (std::uint64_t i = 0; i < 3 * families; ++i) {
    const oracle::CompiledWorkload w(oracle::generate_workload(17, i));
    expect_decodes_to_host(w.dfa(), w.name() + " #" + std::to_string(i));
  }
}

TEST(DeviceDfa, HostPitchPaddingNeverReachesTheDevice) {
  // The device table has its own pitch, so a host STT padded to 320 words
  // uploads the same words as an unpadded one.
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  const ac::Dfa padded = ac::build_dfa(patterns, 64);
  const ac::Dfa unpadded = ac::build_dfa(patterns);
  ASSERT_GT(padded.byte_pitch(), ac::SttMatrix::kColumns);
  EXPECT_GT(expect_decodes_to_host(padded, "paper example, pitch 320"), 0u);
  gpusim::DeviceMemory mem(1 << 20);
  const DeviceDfa a(mem, padded);
  const DeviceDfa b(mem, unpadded);
  EXPECT_EQ(a.stt_pitch_elems(), 8u);
  EXPECT_EQ(device_words(mem, a), device_words(mem, b));
}

TEST(DeviceDfa, ClassesAreOrderedByTrieEdgesAndPaddedToWholeTextureLines) {
  // Trie edges of {he, she, his, hers}: s labels 3 (root-s, her-hers,
  // hi-his), e and h 2 each, i and r 1; the 251 other bytes label none.
  const ac::Dfa paper = ac::build_dfa(ac::PatternSet({"he", "she", "his", "hers"}));
  const ac::ByteClasses& c = paper.classes();
  ASSERT_EQ(c.count, 6u);
  EXPECT_EQ(DeviceDfa::upload_bytes(paper), std::size_t{paper.state_count()} * 8 * 4);
  EXPECT_EQ(c.of_byte['s'], 0u);
  EXPECT_EQ(c.of_byte['e'], 1u);  // tied with h: the smaller byte first
  EXPECT_EQ(c.of_byte['h'], 2u);
  EXPECT_EQ(c.of_byte['i'], 3u);
  EXPECT_EQ(c.of_byte['r'], 4u);
  for (const char other : {'\0', 'a', 'x', '\xff'})
    EXPECT_EQ(c.of_byte[static_cast<std::uint8_t>(other)], 5u);
  EXPECT_EQ(c.first[5], 0u);  // the rest, led by byte 0
  EXPECT_EQ(c.map("shex"), std::string("\0\2\1\5", 4));

  // Bytes the table cannot tell apart share a class: a case-folded DFA
  // sends 'A' where it sends 'a'.
  const ac::ByteClasses folded =
      ac::build_dfa_folded(ac::PatternSet({"ab"}), ac::ascii_fold_map()).classes();
  EXPECT_EQ(folded.count, 3u);
  EXPECT_EQ(folded.of_byte['a'], folded.of_byte['A']);
  EXPECT_EQ(folded.of_byte['b'], folded.of_byte['B']);
  EXPECT_NE(folded.of_byte['a'], folded.of_byte['b']);

  // Every byte in some pattern: 256 classes, as wide as the host's byte
  // columns without the output-id column and its padding.
  std::vector<std::string> every_byte;
  for (int b = 0; b < 256; ++b) every_byte.emplace_back(1, static_cast<char>(b));
  const ac::Dfa every = ac::build_dfa(ac::PatternSet(every_byte));
  EXPECT_EQ(every.classes().count, 256u);
  EXPECT_EQ(DeviceDfa::upload_bytes(every), std::size_t{every.state_count()} * 256 * 4);
}

TEST(DeviceDfa, EveryByteEndsAMatchFlagsEveryTransition) {
  // All 256 one-byte patterns plus longer ones: every transition of every
  // state lands in an accepting state.
  std::vector<std::string> pats;
  for (int b = 0; b < 256; ++b) pats.emplace_back(1, static_cast<char>(b));
  pats.emplace_back("abc");
  pats.emplace_back(std::string("\x00\xff\x00", 3));
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet(pats));
  const std::size_t transitions =
      static_cast<std::size_t>(dfa.state_count()) * (ac::SttMatrix::kColumns - 1);
  EXPECT_EQ(expect_decodes_to_host(dfa, "every byte ends a match"), transitions);
}

TEST(DeviceDfa, OnlyTheCompletingTransitionIsFlagged) {
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"qzk"}));
  EXPECT_EQ(expect_decodes_to_host(dfa, "single pattern"), 1u);
}

TEST(DeviceDfa, UploadBytesIsTheSpanTheUploadTakes) {
  // Engine::create compares upload_bytes with DeviceMemory::available()
  // before uploading, so the two must agree with the constructor exactly.
  for (const ac::Dfa& dfa :
       {ac::build_dfa(ac::PatternSet({"he", "she", "his", "hers"}), 8),
        ac::build_dfa(ac::PatternSet({"qzk"}))}) {
    gpusim::DeviceMemory mem(1 << 20);
    mem.alloc(3);  // the upload starts at the next aligned address, 256
    const DeviceDfa ddfa(mem, dfa);
    EXPECT_EQ(mem.allocated() - 256, DeviceDfa::upload_bytes(dfa));
  }
}

TEST(DeviceDfa, DepthFieldSaturatesPastTheWordsSevenBits) {
  // A 200 B pattern's states run to depth 200; the word holds 127 for
  // every state from depth 127 on, as the host Dfa does.
  const std::string long_pattern(200, 'q');
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({long_pattern, "qz"}));
  expect_decodes_to_host(dfa, "200 B pattern");
  std::int32_t state = 0;
  for (std::uint32_t d = 1; d <= 200; ++d) {
    state = dfa.next(state, 'q');
    ASSERT_EQ(dfa.depth(state), std::min(d, ac::Dfa::kMaxDepth)) << "depth " << d;
  }
  EXPECT_EQ(transition_depth(encode_transition(5, target_byte(false, 500))), kMaxWordDepth);
}

TEST(DeviceDfa, StateCountLimitIsTheTwentyFourBitStateField) {
  // Checked through the limit itself: a DFA at the limit would take a
  // 17.7 GB STT to build.
  EXPECT_TRUE(DeviceDfa::check_state_count(1).is_ok());
  EXPECT_TRUE(DeviceDfa::check_state_count((std::uint64_t{1} << 24) - 1).is_ok());
  for (const std::uint64_t states : {std::uint64_t{1} << 24, std::uint64_t{1} << 31}) {
    const Status s = DeviceDfa::check_state_count(states);
    EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded) << states;
    EXPECT_NE(s.message().find("2^24 - 1 = 16777215"), std::string::npos) << s.message();
    EXPECT_NE(s.message().find(std::to_string(states)), std::string::npos) << s.message();
  }
  // The largest state id survives the word's other fields.
  const std::uint32_t word =
      encode_transition((1 << 24) - 1, target_byte(true, ac::Dfa::kMaxDepth));
  EXPECT_EQ(transition_state(word), (1 << 24) - 1);
  EXPECT_EQ(transition_depth(word), kMaxWordDepth);
  EXPECT_TRUE(transition_accepts(word));
}

TEST(MatchFlag, DecodeTransitionsTouchesOnlyActiveLanes) {
  const std::array<std::uint32_t, 4> words = {
      encode_transition(7, target_byte(true, 2)), encode_transition(3, target_byte(false, 1)),
      encode_transition(9, target_byte(true, 4)), encode_transition(5, target_byte(true, 3))};
  const std::array<bool, 4> active = {true, true, false, true};
  std::array<std::int32_t, 4> state = {-1, -1, -1, -1};
  std::array<bool, 4> flagged = {true, true, true, true};
  EXPECT_TRUE(decode_transitions(words, active, state, flagged));
  EXPECT_EQ(state, (std::array<std::int32_t, 4>{7, 3, -1, 5}));
  EXPECT_EQ(flagged, (std::array<bool, 4>{true, false, false, true}));

  const std::array<bool, 4> unflagged_only = {false, true, false, false};
  EXPECT_FALSE(decode_transitions(words, unflagged_only, state, flagged));
  EXPECT_EQ(flagged, (std::array<bool, 4>{false, false, false, false}));
}

}  // namespace
}  // namespace acgpu::kernels
