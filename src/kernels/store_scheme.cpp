#include "kernels/store_scheme.h"

#include <numeric>

#include "util/error.h"

namespace acgpu::kernels {

const char* to_string(StoreScheme scheme) {
  switch (scheme) {
    case StoreScheme::kSequential: return "sequential";
    case StoreScheme::kCoalescedNaive: return "coalesced-naive";
    case StoreScheme::kDiagonal: return "diagonal";
  }
  return "?";
}

std::uint32_t map_word(StoreScheme scheme, std::uint32_t owner, std::uint32_t word,
                       std::uint32_t chunk_words) {
  ACGPU_CHECK(chunk_words > 0, "map_word: zero chunk_words");
  ACGPU_CHECK(word < chunk_words, "map_word: word " << word << " outside a "
                                      << chunk_words << "-word chunk region");
  switch (scheme) {
    case StoreScheme::kSequential:
    case StoreScheme::kCoalescedNaive:
      return owner * chunk_words + word;
    case StoreScheme::kDiagonal: {
      // Rotate within the owner's region. Row-major already spreads the
      // 16/g owners that share one rotation over distinct bank groups
      // (g = gcd(chunk_words, 16)); rotating by a different residue mod g
      // per such group fills the remaining banks. At g = 16 this is the
      // paper's rotation by `owner`, taken mod 16.
      const std::uint32_t g = std::gcd(chunk_words, 16u);
      const std::uint32_t rotation = owner / (16 / g) % g;
      return owner * chunk_words + (word + rotation) % chunk_words;
    }
  }
  return 0;
}

std::uint32_t map_byte(StoreScheme scheme, std::uint32_t logical_byte,
                       std::uint32_t chunk_bytes) {
  ACGPU_CHECK(chunk_bytes % 4 == 0, "chunk_bytes must be word-aligned, got " << chunk_bytes);
  const std::uint32_t owner = logical_byte / chunk_bytes;
  const std::uint32_t in_chunk = logical_byte % chunk_bytes;
  const std::uint32_t word = in_chunk / 4;
  const std::uint32_t phys_word = map_word(scheme, owner, word, chunk_bytes / 4);
  return phys_word * 4 + (in_chunk % 4);
}

}  // namespace acgpu::kernels
