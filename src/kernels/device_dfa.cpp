#include "kernels/device_dfa.h"

#include <string>
#include <vector>

#include "kernels/match_flag.h"

namespace acgpu::kernels {

static_assert(ac::Dfa::kMaxDepth == kMaxWordDepth,
              "the host depth saturates where the device word's depth field does");

std::vector<std::uint8_t> state_target_bytes(const ac::Dfa& dfa) {
  std::vector<std::uint8_t> top(dfa.state_count());
  for (std::uint32_t s = 0; s < top.size(); ++s) {
    const auto state = static_cast<std::int32_t>(s);
    top[s] = target_byte(dfa.is_match(state), dfa.depth(state));
  }
  return top;
}

namespace {

std::uint32_t row_pitch(const ac::Dfa& dfa) { return (dfa.classes().count + 7) / 8 * 8; }

}  // namespace

Status DeviceDfa::check_state_count(std::uint64_t states) {
  if (states < kMaxDeviceStates) return Status::ok();
  return Status::capacity_exceeded(
      "the DFA has " + std::to_string(states) +
      " states; device transition words address at most 2^24 - 1 = " +
      std::to_string(kMaxDeviceStates - 1));
}

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa) {
  return std::size_t{dfa.state_count()} * row_pitch(dfa) * 4;
}

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa)
    : host_dfa_(&dfa),
      states_(dfa.state_count()),
      pitch_(row_pitch(dfa)),
      max_pattern_length_(dfa.max_pattern_length()),
      stt_bytes_(upload_bytes(dfa)) {
  if (Status s = check_state_count(states_); !s) throw Error(s.message());
  stt_addr_ = mem.alloc(stt_bytes_);

  // Upload row by row: each host row with the target's flag and depth ORed
  // into every word (match_flag.h); the padding past the last class stays
  // zero.
  const std::uint32_t classes = dfa.classes().count;
  const std::vector<std::uint8_t> top = state_target_bytes(dfa);
  std::vector<std::uint32_t> row(pitch_, 0);
  for (std::uint32_t s = 0; s < states_; ++s) {
    const std::int32_t* next = dfa.row(static_cast<std::int32_t>(s));
    for (std::uint32_t k = 0; k < classes; ++k)
      row[k] = encode_transition(next[k], top[static_cast<std::size_t>(next[k])]);
    mem.copy_in(stt_addr_ + static_cast<std::uint64_t>(s) * row.size() * 4,
                row.data(), row.size() * 4);
  }
  texture_ = gpusim::Texture2D(&mem, stt_addr_, classes, states_, pitch_);
}

}  // namespace acgpu::kernels
