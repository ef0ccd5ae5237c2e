#include "kernels/device_dfa.h"

#include <algorithm>
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

Status DeviceDfa::check_state_count(std::uint64_t states) {
  if (states < kMaxDeviceStates) return Status::ok();
  return Status::capacity_exceeded(
      "the DFA has " + std::to_string(states) +
      " states; device transition words address at most 2^24 - 1 = " +
      std::to_string(kMaxDeviceStates - 1));
}

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa) { return dfa.stt().size_bytes(); }

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa)
    : host_dfa_(&dfa),
      states_(dfa.state_count()),
      max_pattern_length_(dfa.max_pattern_length()),
      stt_bytes_(dfa.stt_bytes()) {
  if (Status s = check_state_count(states_); !s) throw Error(s.message());
  const ac::SttMatrix& stt = dfa.stt();
  stt_addr_ = mem.alloc(upload_bytes(dfa));
  stt_pitch_ = stt.pitch();

  // Upload row by row, ORing the target's flag and depth into every
  // transition (match_flag.h). Column 0 and any pitch padding are copied
  // verbatim.
  const std::vector<std::uint8_t> top = state_target_bytes(dfa);
  std::vector<std::uint32_t> row(stt_pitch_);
  for (std::uint32_t s = 0; s < states_; ++s) {
    const std::int32_t* src = stt.data() + static_cast<std::size_t>(s) * stt_pitch_;
    std::copy(src, src + stt_pitch_, row.begin());
    for (std::uint32_t c = 1; c < ac::SttMatrix::kColumns; ++c)
      row[c] = encode_transition(src[c], top[static_cast<std::size_t>(src[c])]);
    mem.copy_in(stt_addr_ + static_cast<std::uint64_t>(s) * stt_pitch_ * 4, row.data(),
                row.size() * 4);
  }
  texture_ = gpusim::Texture2D(&mem, stt_addr_, ac::SttMatrix::kColumns, stt.rows(),
                               stt.pitch());
}

}  // namespace acgpu::kernels
