// Shared-memory placement schemes for the staged input block — the paper's
// Section IV.B.3 and the subject of its Fig. 23 ablation.
//
// The staged region is addressed logically as `owner` chunks of
// `chunk_words` 32-bit words each (owner = the thread that will scan that
// chunk), plus a tail region for the last thread's overlap. A scheme maps
// the logical (owner, word) pair to a physical shared-memory word.
//
//  - kCoalescedNaive: row-major (owner * chunk_words + word). With
//    chunk sizes that are a multiple of 64 bytes this puts word w of every
//    owner on the SAME bank, so the matching phase's lockstep reads are
//    16-way conflicts — the paper's motivating problem.
//  - kDiagonal: the paper's scheme — word w of owner o is rotated to slot
//    (w + r) mod chunk_words inside o's region, so at every matching step
//    the 16 threads of a half-warp hit 16 distinct banks. The paper's
//    r = o assumes 16 divides chunk_words; here r = (o / (16/g)) mod g with
//    g = gcd(chunk_words, 16), which is o mod 16 at those widths and keeps
//    the matching reads conflict-free at every chunk width. The staging
//    stores are conflict-free when chunk_words is odd, divides 16, or is a
//    multiple of 16 (gpucheck audits 3, 4, 8 and 16 words); other even
//    widths (6, 12, 24 words...) still reach 2-way staging conflicts.
//  - kSequential is the layout used by the no-coalescing baseline (each
//    thread copies its own chunk serially); physically identical to
//    kCoalescedNaive, listed separately because the *load* pattern differs.
#pragma once

#include <cstdint>
#include <string>

namespace acgpu::kernels {

enum class StoreScheme : std::uint8_t {
  kSequential,      ///< per-thread serial copy, row-major layout
  kCoalescedNaive,  ///< coalesced loads, row-major stores (Fig 23 baseline)
  kDiagonal,        ///< coalesced loads, bank-conflict-free diagonal stores
};

const char* to_string(StoreScheme scheme);

/// Physical shared-memory *word* index for logical (owner, word).
/// `chunk_words` is the per-owner region size in words; the tail overlap
/// region is addressed as owner == num_chunks and mapped like any other
/// owner's region.
std::uint32_t map_word(StoreScheme scheme, std::uint32_t owner, std::uint32_t word,
                       std::uint32_t chunk_words);

/// Physical shared-memory *byte* address for a logical byte offset into the
/// staged region (logical offset = position within the block's data,
/// chunk-major). Used by the matching phase.
std::uint32_t map_byte(StoreScheme scheme, std::uint32_t logical_byte,
                       std::uint32_t chunk_bytes);

}  // namespace acgpu::kernels
