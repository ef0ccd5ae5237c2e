#include "oracle/workload_gen.h"

#include <algorithm>
#include <string>

#include "util/rng.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::oracle {
namespace {

/// The GPU adapters' chunk floor (oracle/matchers.cpp); several families
/// deliberately plant patterns across multiples of it.
constexpr std::size_t kChunkFloor = 32;
/// Pattern-length ceiling keeping (threads_per_block + 1) * chunk inside the
/// 16 KB shared memory of the simulated SM.
constexpr std::size_t kMaxPatternLen = 120;

std::string random_bytes(Rng& rng, std::size_t len, std::uint32_t alphabet,
                         char base = 'a') {
  std::string s(len, base);
  for (auto& c : s)
    c = static_cast<char>(base + static_cast<char>(rng.next_below(alphabet)));
  return s;
}

/// Natural-language corpus with patterns extracted from it (the paper's own
/// methodology) — the "realistic" family.
Workload gen_corpus(Rng& rng) {
  const std::size_t bytes = 2000 + rng.next_below(6000);
  std::string text = workload::make_corpus(bytes, rng.next_u64());
  workload::ExtractConfig ec;
  ec.count = static_cast<std::uint32_t>(8 + rng.next_below(40));
  ec.min_length = static_cast<std::uint32_t>(2 + rng.next_below(3));
  ec.max_length = ec.min_length + static_cast<std::uint32_t>(rng.next_below(12));
  ec.seed = rng.next_u64();
  ec.word_aligned = rng.next_bool(0.5);
  const ac::PatternSet ps = workload::extract_patterns(text, ec);
  return {"corpus", {ps.begin(), ps.end()}, std::move(text)};
}

/// Patterns planted to straddle every multiple of the GPU chunk floor at
/// every phase (start offsets 1..len-1 before the boundary) — the paper's
/// X-overlap rule is exercised on each one. Text and patterns draw from an
/// alphabet of exactly 4, 5, 64 or 65 byte values, every one of which the
/// text holds: the edges of the pipeline's 2-bit, 6-bit and byte staging
/// widths (kernels/packed_text.h), which its salted batch slices cross.
Workload gen_boundary(Rng& rng) {
  static constexpr std::uint32_t kAlphabets[] = {4, 5, 64, 65};
  const std::uint32_t alphabet = kAlphabets[rng.next_below(std::size(kAlphabets))];
  const std::size_t len = 3 + rng.next_below(10);
  const std::string pattern = random_bytes(rng, len, alphabet, 'a');
  std::string filler_pattern = random_bytes(rng, 2 + rng.next_below(4), alphabet, 'a');
  std::string text = random_bytes(rng, kChunkFloor * (8 + rng.next_below(24)), alphabet, 'a');
  for (std::size_t boundary = kChunkFloor; boundary + len < text.size();
       boundary += kChunkFloor) {
    // Straddle: start `back` bytes before the boundary, 1 <= back < len.
    const std::size_t back = 1 + rng.next_below(len - 1);
    if (boundary >= back) text.replace(boundary - back, len, pattern);
  }
  for (std::uint32_t v = 0; v < alphabet; ++v) text += static_cast<char>('a' + v);
  return {"boundary", {pattern, std::move(filler_pattern)}, std::move(text)};
}

/// Suffix-of-suffix output chains: every suffix of one base string is its
/// own pattern, so reaching the deep state must emit the whole chain via
/// the failure-closed output sets.
Workload gen_suffix_chain(Rng& rng) {
  const std::size_t len = 4 + rng.next_below(12);
  const std::string base = random_bytes(rng, len, 3, 's');
  std::vector<std::string> patterns;
  for (std::size_t l = 1; l <= base.size(); ++l)
    patterns.push_back(base.substr(base.size() - l));
  std::string text;
  const std::size_t reps = 4 + rng.next_below(60);
  for (std::size_t r = 0; r < reps; ++r) {
    text += random_bytes(rng, rng.next_below(2 * kChunkFloor), 3, 's');
    text += base;
  }
  return {"suffix-chain", std::move(patterns), std::move(text)};
}

/// One-symbol alphabet: maximal overlap density (every position matches
/// every pattern), the classic match-buffer / dedup stress.
Workload gen_single_byte(Rng& rng) {
  const char byte = rng.next_bool(0.5) ? 'a' : static_cast<char>(0x00);
  std::vector<std::string> patterns;
  const std::size_t kinds = 1 + rng.next_below(6);
  for (std::size_t k = 1; k <= kinds; ++k)
    patterns.emplace_back(k, byte);
  std::string text(1 + rng.next_below(1500), byte);
  return {"single-byte", std::move(patterns), std::move(text)};
}

/// Full 256-value alphabet including 0x00 and 0xFF — the 257-column STT's
/// byte<->column mapping and the kernels' padding handling are on trial.
Workload gen_full_alphabet(Rng& rng) {
  std::string text = random_bytes(rng, 512 + rng.next_below(2048), 256,
                                  static_cast<char>(0));
  // Guarantee the extremes appear, in matchable context.
  const std::string extremes = {static_cast<char>(0x00), static_cast<char>(0xFF),
                                static_cast<char>(0x00), static_cast<char>(0xFF)};
  text.insert(rng.next_below(text.size()), extremes);
  std::vector<std::string> patterns = {extremes.substr(0, 2), extremes.substr(1, 2)};
  const std::size_t extracted = 4 + rng.next_below(12);
  for (std::size_t k = 0; k < extracted; ++k) {
    const std::size_t len = 1 + rng.next_below(6);
    const std::size_t pos = rng.next_below(text.size() - len);
    patterns.push_back(text.substr(pos, len));
  }
  return {"full-alphabet", std::move(patterns), std::move(text)};
}

/// Patterns longer than a GPU thread chunk (the adapters must grow the
/// chunk to keep overlap < chunk; the decomposition math is the target).
Workload gen_long_pattern(Rng& rng) {
  const std::size_t len =
      kChunkFloor + 8 + rng.next_below(kMaxPatternLen - kChunkFloor - 8);
  const std::string pattern = random_bytes(rng, len, 3, 'L');
  std::string text = random_bytes(rng, len * (4 + rng.next_below(12)), 3, 'L');
  const std::size_t plants = 2 + rng.next_below(5);
  for (std::size_t p = 0; p < plants; ++p)
    text.replace(rng.next_below(text.size() - len), len, pattern);
  std::string probe = pattern.substr(rng.next_below(len / 2), 2 + rng.next_below(6));
  return {"long-pattern", {pattern, std::move(probe)}, std::move(text)};
}

/// Degenerate texts: empty, one byte, and texts at/near the chunk floor.
Workload gen_tiny_text(Rng& rng) {
  static constexpr std::size_t kSizes[] = {0,  1,  2,  3,  7, kChunkFloor - 1,
                                           kChunkFloor, kChunkFloor + 1, 40};
  const std::size_t size = kSizes[rng.next_below(std::size(kSizes))];
  std::vector<std::string> patterns;
  const std::size_t kinds = 1 + rng.next_below(4);
  for (std::size_t k = 0; k < kinds; ++k)
    patterns.push_back(random_bytes(rng, 1 + rng.next_below(5), 2, 'a'));
  std::string text = random_bytes(rng, size, 2, 'a');
  return {"tiny-text", std::move(patterns), std::move(text)};
}

/// Adversarial overlap-heavy dictionary over a two-symbol alphabet: dense
/// cross-pattern overlaps, heavy failure-link traffic, many same-end
/// multi-pattern emissions.
Workload gen_overlap_heavy(Rng& rng) {
  std::vector<std::string> patterns;
  const std::size_t count = 6 + rng.next_below(30);
  for (std::size_t k = 0; k < count; ++k)
    patterns.push_back(random_bytes(rng, 1 + rng.next_below(8), 2, 'a'));
  std::string text = random_bytes(rng, 256 + rng.next_below(4096), 2, 'a');
  return {"overlap-heavy", std::move(patterns), std::move(text)};
}

/// Where the AC kernel's overlap exit decides (a lane leaves its overlap
/// once its state is no deeper than the bytes it has consumed past its
/// chunk). One of three shapes:
///  - one repeated byte with patterns c^1..c^X: every byte ends X matches,
///    and the state stays at depth X, so no lane ever leaves early;
///  - one max-length pattern starting at every offset of a chunk's tail (the
///    GPU adapters' chunk), in noise of letters it never uses, so every lane
///    around it leaves as early as the rule allows;
///  - a 1-byte and a max-length pattern together over two letters.
Workload gen_exit_edge(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: {
      const char byte = static_cast<char>(rng.next_below(256));
      const std::size_t x = 1 + rng.next_below(kChunkFloor);
      std::vector<std::string> patterns;
      for (std::size_t k = 1; k <= x; ++k) patterns.emplace_back(k, byte);
      std::string text(1 + rng.next_below(3000), byte);
      return {"exit-edge", std::move(patterns), std::move(text)};
    }
    case 1: {
      const std::size_t x = 2 + rng.next_below(kMaxPatternLen - 1);
      const std::size_t chunk = std::max(kChunkFloor, (x + 3) / 4 * 4);
      const std::string longest = random_bytes(rng, x, 4, 'a');
      // Every other chunk carries one placement, at tail offset k = 1..X-1.
      std::string text = random_bytes(rng, 2 * chunk * x + rng.next_below(chunk), 4, 'w');
      for (std::size_t k = 1; k < x; ++k) text.replace(2 * k * chunk + chunk - k, x, longest);
      return {"exit-edge", {longest, "w"}, std::move(text)};
    }
    default: {
      const std::size_t x = kChunkFloor + rng.next_below(kMaxPatternLen - kChunkFloor + 1);
      const std::string longest = random_bytes(rng, x, 2, 'a');
      std::string text = random_bytes(rng, x * (4 + rng.next_below(12)), 2, 'a');
      const std::size_t plants = 2 + rng.next_below(5);
      for (std::size_t p = 0; p < plants; ++p)
        text.replace(rng.next_below(text.size() - x), x, longest);
      return {"exit-edge", {longest, longest.substr(0, 1)}, std::move(text)};
    }
  }
}

using Family = Workload (*)(Rng&);
constexpr Family kFamilies[] = {
    gen_corpus,        gen_boundary,     gen_suffix_chain, gen_single_byte,
    gen_full_alphabet, gen_long_pattern, gen_tiny_text,    gen_overlap_heavy,
    gen_exit_edge,
};
constexpr const char* kFamilyNames[] = {
    "corpus",        "boundary",     "suffix-chain", "single-byte",
    "full-alphabet", "long-pattern", "tiny-text",    "overlap-heavy",
    "exit-edge",
};

}  // namespace

std::size_t workload_family_count() { return std::size(kFamilies); }

const char* workload_family_name(std::uint64_t iteration) {
  return kFamilyNames[iteration % std::size(kFamilies)];
}

Workload generate_workload(std::uint64_t seed, std::uint64_t iteration) {
  Rng rng(derive_seed(seed, iteration));
  Workload w = kFamilies[iteration % std::size(kFamilies)](rng);
  // Two appends, not operator+: the temporary-concat form trips a GCC 12
  // -Wrestrict false positive (PR 105651) under -Werror.
  w.name += '#';
  w.name += std::to_string(iteration);
  return w;
}

}  // namespace acgpu::oracle
