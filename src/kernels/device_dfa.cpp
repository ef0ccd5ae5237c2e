#include "kernels/device_dfa.h"

#include <algorithm>
#include <array>
#include <vector>

#include "kernels/match_flag.h"

namespace acgpu::kernels {
namespace {

/// The upload's four allocations, in order: STT, output offsets, output ids
/// (at least one word, so the address is valid for dictionaries whose DFA
/// has no output entries — impossible in practice, cheap to allow), and
/// pattern lengths.
std::array<std::size_t, 4> allocation_sizes(const ac::Dfa& dfa) {
  return {dfa.stt().size_bytes(), dfa.output_offsets().size() * 4,
          std::max<std::size_t>(1, dfa.output_ids().size() * 4),
          dfa.pattern_lengths().size() * 4};
}

}  // namespace

std::size_t DeviceDfa::upload_bytes(const ac::Dfa& dfa) {
  using gpusim::DeviceMemory;
  const std::array<std::size_t, 4> sizes = allocation_sizes(dfa);
  return DeviceMemory::align_up(sizes[0]) + DeviceMemory::align_up(sizes[1]) +
         DeviceMemory::align_up(sizes[2]) + sizes[3];
}

DeviceDfa::DeviceDfa(gpusim::DeviceMemory& mem, const ac::Dfa& dfa)
    : host_dfa_(&dfa),
      states_(dfa.state_count()),
      max_pattern_length_(dfa.max_pattern_length()),
      stt_bytes_(dfa.stt_bytes()) {
  const std::array<std::size_t, 4> sizes = allocation_sizes(dfa);
  const ac::SttMatrix& stt = dfa.stt();
  stt_addr_ = mem.alloc(sizes[0]);
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

  const auto& offsets = dfa.output_offsets();
  out_begin_addr_ = mem.alloc(sizes[1]);
  mem.copy_in(out_begin_addr_, offsets.data(), offsets.size() * 4);

  const auto& ids = dfa.output_ids();
  out_ids_addr_ = mem.alloc(sizes[2]);
  if (!ids.empty()) mem.copy_in(out_ids_addr_, ids.data(), ids.size() * 4);

  const auto& lengths = dfa.pattern_lengths();
  lengths_addr_ = mem.alloc(sizes[3]);
  mem.copy_in(lengths_addr_, lengths.data(), lengths.size() * 4);
}

}  // namespace acgpu::kernels
