#include "kernels/compressed_kernel.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "kernels/device_dfa.h"
#include "kernels/match_flag.h"
#include "util/error.h"

namespace acgpu::kernels {

DeviceCompressedDfa::DeviceCompressedDfa(gpusim::DeviceMemory& mem,
                                         const ac::CompressedStt& stt,
                                         const ac::Dfa& dfa)
    : dfa_(&dfa), words_(stt.bitmap_words()) {
  ACGPU_CHECK(stt.state_count() == dfa.state_count() && stt.classes() == dfa.classes(),
              "DeviceCompressedDfa: compressed table does not match the DFA");
  if (Status s = DeviceDfa::check_state_count(dfa.state_count()); !s)
    throw Error(s.message());
  const std::uint32_t states = stt.state_count();

  // Rows texture: W bitmap words, then W prefix bases, so the kernel finds a
  // target's rank with ONE extra fetch instead of walking the bitmap words.
  const std::uint32_t pitch = 2 * words_;
  const std::size_t rows_bytes = std::size_t{states} * pitch * 4;
  const gpusim::DevAddr rows_addr = mem.alloc(rows_bytes);
  std::vector<std::uint32_t> row(pitch);
  for (std::uint32_t s = 0; s < states; ++s) {
    const auto state = static_cast<std::int32_t>(s);
    std::uint32_t prefix = stt.row_base(state);
    for (std::uint32_t w = 0; w < words_; ++w) {
      row[w] = stt.row_bitmap(state, w);
      row[words_ + w] = prefix;
      prefix += static_cast<std::uint32_t>(std::popcount(row[w]));
    }
    mem.copy_in(rows_addr + std::uint64_t{s} * pitch * 4, row.data(), pitch * 4);
  }
  rows_tex_ = gpusim::Texture2D(&mem, rows_addr, pitch, states, pitch);

  // Targets texture and root row: explicit transitions and the root's
  // transition on every class, with the target's flag and depth bits.
  const std::vector<std::uint8_t> top = state_target_bytes(dfa);
  const auto encode = [&](std::int32_t next) {
    return encode_transition(next, top[static_cast<std::size_t>(next)]);
  };
  const auto& targets = stt.targets();
  const std::uint32_t target_rows =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                     (targets.size() + kTargetsWidth - 1) / kTargetsWidth));
  const std::size_t targets_bytes = std::size_t{target_rows} * kTargetsWidth * 4;
  const gpusim::DevAddr targets_addr = mem.alloc(targets_bytes);
  for (std::size_t i = 0; i < targets.size(); ++i)
    mem.store_u32(targets_addr + i * 4, encode(targets[i]));
  targets_tex_ =
      gpusim::Texture2D(&mem, targets_addr, kTargetsWidth, target_rows, kTargetsWidth);

  const auto& root = stt.root_row();
  root_addr_ = mem.alloc(root.size() * 4);
  for (std::size_t c = 0; c < root.size(); ++c)
    mem.store_u32(root_addr_ + c * 4, encode(root[c]));

  device_bytes_ = rows_bytes + targets_bytes + root.size() * 4;
}

}  // namespace acgpu::kernels
