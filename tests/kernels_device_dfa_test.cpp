// The device STT's transition-word encoding: every DeviceDfa entry decodes
// back to the host table, the match flag is set exactly on transitions into
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

/// Uploads `dfa` and checks every word the device holds against the host
/// table, failing at the first mismatch. Returns the flagged-word count.
std::size_t expect_decodes_to_host(const ac::Dfa& dfa, const std::string& label) {
  gpusim::DeviceMemory mem(std::max<std::size_t>(1 << 20, 2 * dfa.stt_bytes() + (1 << 16)));
  const DeviceDfa ddfa(mem, dfa);
  const ac::SttMatrix& stt = dfa.stt();
  EXPECT_EQ(ddfa.stt_pitch_elems(), stt.pitch()) << label;
  std::size_t flagged = 0;
  for (std::uint32_t s = 0; s < stt.rows(); ++s) {
    const gpusim::DevAddr row =
        ddfa.stt_addr() + static_cast<std::uint64_t>(s) * stt.pitch() * 4;
    for (std::uint32_t c = 0; c < stt.pitch(); ++c) {
      const std::uint32_t word = mem.load_u32(row + c * 4);
      const std::int32_t host = stt.at(s, c);
      bool ok = true;
      if (c >= 1 && c < ac::SttMatrix::kColumns) {
        ok = transition_state(word) == host &&
             transition_accepts(word) == dfa.is_match(host) &&
             transition_depth(word) == dfa.depth(host) &&
             ddfa.texture().fetch(c, s) == static_cast<std::int32_t>(word);
        flagged += transition_accepts(word);
      } else {
        // Column 0 (output id) and pitch padding are copied verbatim.
        ok = static_cast<std::int32_t>(word) == host;
      }
      if (!ok) {
        ADD_FAILURE() << label << ": state " << s << " column " << c << " holds 0x"
                      << std::hex << word << ", host entry " << std::dec << host;
        return flagged;
      }
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

TEST(DeviceDfa, PaddedPitchKeepsPaddingVerbatim) {
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"he", "she", "his", "hers"}), 64);
  ASSERT_GT(dfa.stt().pitch(), ac::SttMatrix::kColumns);
  EXPECT_GT(expect_decodes_to_host(dfa, "paper example, pitch 320"), 0u);
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
