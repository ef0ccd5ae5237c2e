#include "ac/compressed_stt.h"

#include "util/error.h"

namespace acgpu::ac {

CompressedStt::CompressedStt(const Dfa& dfa) {
  const std::uint32_t states = dfa.state_count();
  ACGPU_CHECK(states > 0, "CompressedStt: empty DFA");

  for (std::uint32_t b = 0; b < 256; ++b)
    root_row_[b] = dfa.next(0, static_cast<std::uint8_t>(b));

  rows_.resize(states);
  output_ids_.resize(states);
  for (std::uint32_t s = 0; s < states; ++s) {
    Row& row = rows_[s];
    row.base = static_cast<std::uint32_t>(targets_.size());
    output_ids_[s] = dfa.output_id(static_cast<std::int32_t>(s));
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::int32_t target =
          dfa.next(static_cast<std::int32_t>(s), static_cast<std::uint8_t>(b));
      if (s != 0 && target == root_row_[b]) continue;  // root-default entry
      if (s == 0) continue;  // the root row itself lives in root_row_
      row.bitmap[b >> 5] |= 1u << (b & 31);
      targets_.push_back(target);
    }
  }

  const double dense = static_cast<double>(dfa.state_count()) * dfa.byte_pitch() * 4;
  ratio_ = dense / static_cast<double>(size_bytes());
}

std::size_t CompressedStt::size_bytes() const {
  return rows_.size() * sizeof(Row) + targets_.size() * sizeof(std::int32_t) +
         output_ids_.size() * sizeof(std::int32_t) + sizeof(root_row_);
}

}  // namespace acgpu::ac
