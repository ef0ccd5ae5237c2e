#include "ac/compressed_stt.h"

#include "util/error.h"

namespace acgpu::ac {

CompressedStt::CompressedStt(const Dfa& dfa)
    : classes_(dfa.classes()), words_((dfa.classes().count + 31) / 32) {
  const std::uint32_t states = dfa.state_count();
  ACGPU_CHECK(states > 0, "CompressedStt: empty DFA");

  const std::uint32_t classes = classes_.count;
  root_row_.assign(dfa.row(0), dfa.row(0) + classes);
  bitmaps_.resize(std::size_t{states} * words_);
  bases_.resize(states);
  output_ids_.resize(states);
  for (std::uint32_t s = 0; s < states; ++s) {
    const auto state = static_cast<std::int32_t>(s);
    bases_[s] = static_cast<std::uint32_t>(targets_.size());
    output_ids_[s] = dfa.output_id(state);
    if (s == 0) continue;  // the root row itself lives in root_row_
    std::uint32_t* bits = bitmaps_.data() + std::size_t{s} * words_;
    for (std::uint32_t c = 0; c < classes; ++c) {
      const std::int32_t target = dfa.row(state)[c];
      if (target == root_row_[c]) continue;  // root-default entry
      bits[c >> 5] |= 1u << (c & 31);
      targets_.push_back(target);
    }
  }

  const double dense = static_cast<double>(dfa.state_count()) * dfa.byte_pitch() * 4;
  ratio_ = dense / static_cast<double>(size_bytes());
}

std::size_t CompressedStt::size_bytes() const {
  return (bitmaps_.size() + bases_.size()) * sizeof(std::uint32_t) +
         (targets_.size() + output_ids_.size() + root_row_.size()) * sizeof(std::int32_t);
}

}  // namespace acgpu::ac
