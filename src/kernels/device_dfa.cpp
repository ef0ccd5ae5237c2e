#include "kernels/device_dfa.h"

#include <algorithm>
#include <vector>

#include "kernels/match_flag.h"

namespace acgpu::kernels {

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa) { return dfa.stt().size_bytes(); }

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa)
    : host_dfa_(&dfa),
      states_(dfa.state_count()),
      max_pattern_length_(dfa.max_pattern_length()),
      stt_bytes_(dfa.stt_bytes()) {
  const ac::SttMatrix& stt = dfa.stt();
  stt_addr_ = mem.alloc(upload_bytes(dfa));
  stt_pitch_ = stt.pitch();

  // Upload row by row, flagging every transition into an accepting state
  // (match_flag.h). Column 0 and any pitch padding are copied verbatim.
  std::vector<std::uint8_t> accepting(states_);
  for (std::uint32_t s = 0; s < states_; ++s)
    accepting[s] = dfa.is_match(static_cast<std::int32_t>(s));
  std::vector<std::uint32_t> row(stt_pitch_);
  for (std::uint32_t s = 0; s < states_; ++s) {
    const std::int32_t* src = stt.data() + static_cast<std::size_t>(s) * stt_pitch_;
    std::copy(src, src + stt_pitch_, row.begin());
    for (std::uint32_t c = 1; c < ac::SttMatrix::kColumns; ++c)
      row[c] = encode_transition(src[c], accepting[static_cast<std::size_t>(src[c])]);
    mem.copy_in(stt_addr_ + static_cast<std::uint64_t>(s) * stt_pitch_ * 4, row.data(),
                row.size() * 4);
  }
  texture_ = gpusim::Texture2D(&mem, stt_addr_, ac::SttMatrix::kColumns, stt.rows(),
                               stt.pitch());
}

}  // namespace acgpu::kernels
