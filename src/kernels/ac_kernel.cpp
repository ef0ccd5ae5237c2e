#include "kernels/ac_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "kernels/compressed_kernel.h"
#include "kernels/match_flag.h"
#include "util/error.h"

namespace acgpu::kernels {

const char* to_string(Approach approach) {
  switch (approach) {
    case Approach::kGlobalOnly: return "global-only";
    case Approach::kShared: return "shared";
  }
  return "?";
}

const char* to_string(SttPlacement placement) {
  switch (placement) {
    case SttPlacement::kTexture: return "texture";
    case SttPlacement::kGlobal: return "global";
  }
  return "?";
}

namespace {

using gpusim::DevAddr;
using gpusim::Warp;
using gpusim::WarpTask;

constexpr std::uint32_t L = Warp::kMaxLanes;

/// The transition table a launch reads: the dense class STT, or the
/// compressed rows, targets and root row (compressed_kernel.h).
struct Table {
  DevAddr stt_addr = 0;  ///< dense: the STT the kGlobal placement loads
  std::uint32_t stt_pitch_bytes = 0;
  std::uint32_t bitmap_words = 0;  ///< compressed: W; 0 for the dense table
  DevAddr root_addr = 0;           ///< compressed: the root row ...
  std::uint32_t root_entries = 0;  ///< ... of one entry per class
};

Table table_of(const DeviceDfa& ddfa) {
  Table t;
  t.stt_addr = ddfa.stt_addr();
  t.stt_pitch_bytes = ddfa.stt_pitch_elems() * 4;
  return t;
}

Table table_of(const DeviceCompressedDfa& dcdfa) {
  Table t;
  t.bitmap_words = dcdfa.bitmap_words();
  t.root_addr = dcdfa.root_row_addr();
  t.root_entries = dcdfa.host_dfa().classes().count;
  return t;
}

/// Everything the kernel body needs, copied by value into the coroutine frame
/// (mirrors a CUDA kernel's parameter block).
struct KParams {
  DevAddr text_addr = 0;
  std::uint64_t text_len = 0;
  std::optional<SymbolTable> symbols;  ///< set: text_addr holds packed text
  std::uint32_t chunk_bytes = 0;
  std::uint32_t overlap = 0;  ///< X-1 extra scan bytes per chunk
  std::uint32_t threads_per_block = 0;
  Approach approach{};
  StoreScheme scheme{};
  SttPlacement placement{};
  Table table;
  std::uint32_t root_shared = 0;  ///< compressed: shared offset of the staged root row
  DevAddr counts = 0;
  DevAddr records = 0;
  std::uint64_t record_threads = 0;  ///< MatchBuffer threads: the slot stride
  std::uint32_t slots = 0;
  std::uint32_t scan_bound = 0;  ///< S = chunk + overlap, the record radix
};

/// STT column per lane: the scanned symbol, a byte class id (device_dfa.h).
using Columns = std::array<std::uint32_t, L>;

/// ALU warp instructions charged per scanned byte (state update, address
/// arithmetic, bounds checks): the timing model's main calibration constant.
constexpr std::uint32_t kComputePerByte = 8;

/// Warp instructions of the overlap-exit test, charged on every step from
/// the chunk's last byte on: one compares the word's depth field with the
/// bytes consumed past the chunk, one votes whether any lane still scans.
constexpr std::uint32_t kExitTestInstrs = 2;

/// Warp instructions the compressed table adds to every step: the bit test
/// that picks the root row or an explicit target, and the target's rank
/// (prefix base plus the popcount of the row bits below the class). It keeps
/// the compressed table's charge at 10 per byte against the dense table's 8.
constexpr std::uint32_t kRankInstrs = 2;

/// Points every active lane at column `col[l]` of STT row `state[l]` — texel
/// coordinates or a global address, per the placement — and returns the
/// fetch. A plain function cannot co_await for the kernel body, but it can
/// hand back the awaitable for the body to co_await.
Warp::Await stt_read(Warp& w, const KParams& p, const std::array<std::int32_t, L>& state,
                     const Columns& col) {
  if (p.placement == SttPlacement::kTexture) {
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        w.tex_x[l] = col[l];
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    return w.tex_fetch();
  }
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (w.mask[l])
      w.addr[l] = p.table.stt_addr + col[l] * 4 +
                  static_cast<std::uint64_t>(state[l]) * p.table.stt_pitch_bytes;
  return w.global_load_u32();
}

/// Warp instructions that expand one 2-bit staging word, counted from the
/// sequence a CUDA kernel issues on sm_13 (no bfe or prmt; mul24 is one
/// instruction). unpack_word (packed_text.cpp) computes it the same way.
/// Loop-invariant per lane: the symbol table's lane constants T0 and X1-X3,
/// and in the cooperative loop sh = 8 * ((thread + block_base / 4) % 4), the
/// packed byte's bit offset in the loaded word w. Per word:
///   b   = w >> sh                                       shr                1
///   lo  = mul24(b & 0xf, 0x204081) & 0x01010101         and mul24 and      3
///   hi  = mul24((b >> 4) & 0xf, 0x204081) & 0x01010101  shr and mul24 and  4
///   mlo = (lo << 8) - lo;  mhi = (hi << 8) - hi         shl sub shl sub    4
///   v   = T0 ^ (mhi & X2) ^ (mlo & (X1 ^ (mhi & X3)))   and xor and and xor xor  6
/// Address arithmetic is not charged, as on the byte path.
constexpr std::uint32_t kUnpackInstrs = 18;
/// The sequential loops' offset moves with each step: sh = (sh + 8) & 31 for
/// 2-bit text, (sh + 24) & 31 for 6-bit text.
constexpr std::uint32_t kUnpackStepInstrs = 2;
/// The text's partial last word, peeled out of the loop, keeps its first
/// n = text_len - 4q bytes: v &= (1 << (n << 3)) - 1.   sub shl shl sub and
constexpr std::uint32_t kUnpackTailInstrs = 5;

/// 6-bit text: warp instructions that turn the one or two words holding a
/// staged word's 24-bit group into its four codes, with sh the group's bit
/// offset in the first word (loop-invariant per lane in the cooperative loop;
/// 32 - sh too):
///   g  = (w0 >> sh) | (w1 << (32 - sh))    shr shl or        3
///   c0 = g & 63                            and               1
///   ck = (g >> 6k) & 63, k = 1..3          shr and (x3)      6
/// Each code then reads its byte from the warp's table in shared memory
/// (four shared loads), and
///   v  = s0 | s1 << 8 | s2 << 16 | s3 << 24   shl or (x3)    6
/// assembles the staged word. Address arithmetic is not charged.
constexpr std::uint32_t kGroupInstrs = 10;
constexpr std::uint32_t kAssembleInstrs = 6;

/// 6-bit text: each warp's area after the staged region holds its own copy of
/// the 64-byte symbol table, written by the warp before its first decode, and
/// its exchange, the 24 packed words that hold its 32 staged words. Lanes of
/// one warp run in lockstep, so neither needs a barrier.
constexpr std::uint32_t kTableBytes = kMaxSymbols;
constexpr std::uint32_t kExchangeWords = 24;
constexpr std::uint32_t kWarpAreaBytes = kTableBytes + kExchangeWords * 4;

/// Global address of the word a lane loads to stage word `wi` of the block
/// starting at text byte `block_base`: that word for byte text; for 2-bit
/// text, the aligned word holding the packed byte of its four symbols.
DevAddr staging_load_addr(const KParams& p, std::uint64_t block_base, std::uint32_t wi) {
  if (!p.symbols) return p.text_addr + block_base + static_cast<std::uint64_t>(wi) * 4;
  return p.text_addr + ((block_base / 4 + wi) & ~std::uint64_t{3});
}

/// 2-bit text only: replaces each loading lane's word with the four bytes of
/// its staged word `widx[l]` (what the byte path would have loaded) and hands
/// back the expansion's ALU charge, `instrs` per word plus the tail mask when
/// a lane holds the text's partial last word, for the body to co_await.
Warp::Await unpack_staged(Warp& w, const KParams& p, std::uint64_t block_base,
                          const std::array<std::uint32_t, L>& widx, std::uint32_t instrs) {
  bool tail = false;
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (w.mask[l]) {
      const std::uint64_t q = block_base / 4 + widx[l];
      const auto packed = static_cast<std::uint8_t>(w.value[l] >> (q % 4 * 8));
      w.value[l] = unpack_word(packed, *p.symbols, q * 4, p.text_len);
      tail |= q * 4 + 4 > p.text_len;
    }
  return w.compute(instrs + (tail ? kUnpackTailInstrs : 0));
}

WarpTask ac_kernel_body(Warp& w, KParams p) {
  const std::uint64_t chunk = p.chunk_bytes;
  const std::uint32_t chunk_words = p.chunk_bytes / 4;
  const std::uint64_t block_base =
      w.block_id * static_cast<std::uint64_t>(p.threads_per_block) * chunk;

  // ---------------- staging phase (shared-memory approach) ----------------
  if (p.approach == Approach::kShared) {
    const std::uint64_t block_data_end = std::min<std::uint64_t>(
        p.text_len, block_base + static_cast<std::uint64_t>(p.threads_per_block) * chunk);
    const std::uint64_t block_scan_end =
        std::min<std::uint64_t>(p.text_len, block_data_end + p.overlap);
    const std::uint32_t staged_bytes =
        static_cast<std::uint32_t>(block_scan_end - block_base);
    const std::uint32_t total_words = (staged_bytes + 3) / 4;
    const bool six = symbol_bits(p.symbols) == 6;
    const std::uint32_t table =
        (p.threads_per_block + 1) * p.chunk_bytes + w.warp_in_block * kWarpAreaBytes;
    const std::uint32_t exchange = table + kTableBytes;

    if (six) {
      // The warp's copy of the table, one word per lane of the first 16.
      w.mask_none();
      for (std::uint32_t l = 0; l < kTableBytes / 4; ++l) {
        w.mask[l] = true;
        w.addr[l] = table + 4 * l;
        w.value[l] = 0;
        for (std::uint32_t k = 0; k < 4; ++k)
          w.value[l] |= std::uint32_t{p.symbols->values[4 * l + k]} << (8 * k);
      }
      co_await w.shared_store_u32();
    }

    // The paper's cooperative load: in step s, thread t fetches word
    // s*T + t — consecutive lanes hit consecutive words, so each warp's
    // load coalesces into a handful of 128-byte transactions. The
    // sequential baseline instead has each thread copy its own chunk
    // front-to-back (lane addresses chunk_bytes apart, so its loads barely
    // coalesce), and thread 0 then copies the overlap tail past the last
    // chunk word by word.
    const bool cooperative = p.scheme != StoreScheme::kSequential;
    const std::uint32_t T = p.threads_per_block;
    const std::uint32_t tail_begin = T * chunk_words;
    const std::uint32_t tail_words =
        w.warp_in_block == 0 && total_words > tail_begin ? total_words - tail_begin : 0;
    const std::uint32_t steps =
        cooperative ? (total_words + T - 1) / T : chunk_words + tail_words;
    std::array<std::uint32_t, L> widx{};
    for (std::uint32_t step = 0; step < steps; ++step) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        const std::uint32_t t = w.thread_in_block(l);
        const std::uint32_t wi = cooperative         ? step * T + t
                                 : step < chunk_words ? t * chunk_words + step
                                 : l == 0             ? tail_begin + step - chunk_words
                                                      : total_words;
        if (wi < total_words) {
          w.mask[l] = true;
          widx[l] = wi;
        }
      }
      if (!w.any_active()) continue;
      const std::array<bool, L> staging = w.mask;

      if (!six) {
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          if (staging[l]) w.addr[l] = staging_load_addr(p, block_base, widx[l]);
        co_await w.global_load_u32();
        w.mask = staging;
        if (p.symbols)
          co_await unpack_staged(w, p, block_base, widx,
                                 kUnpackInstrs + (cooperative ? 0 : kUnpackStepInstrs));
      } else {
        // The one or two packed words holding each lane's 24-bit group,
        // starting at byte 3q of the packed text for staged word q.
        std::array<std::uint32_t, L> shift{};
        if (cooperative) {
          // The warp's words are consecutive from a multiple of 32, so their
          // groups fill whole packed words from lane 0's group on: the first
          // ceil(3n/4) lanes fetch them in one coalesced load and pass them
          // through the warp's exchange, where lane l's group starts at byte 3l.
          std::uint32_t n = 0;
          while (n < w.lane_count && staging[n]) ++n;
          const DevAddr first = p.text_addr + 3 * (block_base / 4 + widx[0]);
          w.mask_none();
          for (std::uint32_t l = 0; l < (3 * n + 3) / 4; ++l) {
            w.mask[l] = true;
            w.addr[l] = first + 4 * l;
          }
          co_await w.global_load_u32();
          for (std::uint32_t l = 0; l < (3 * n + 3) / 4; ++l) w.addr[l] = exchange + 4 * l;
          co_await w.shared_store_u32();
          w.mask = staging;
          for (std::uint32_t l = 0; l < n; ++l) {
            w.addr[l] = exchange + 3 * l / 4 * 4;
            shift[l] = 3 * l % 4 * 8;
          }
        } else {
          for (std::uint32_t l = 0; l < w.lane_count; ++l)
            if (staging[l]) {
              const std::uint64_t byte = 3 * (block_base / 4 + widx[l]);
              w.addr[l] = p.text_addr + byte / 4 * 4;
              shift[l] = static_cast<std::uint32_t>(byte % 4 * 8);
            }
        }
        co_await (cooperative ? w.shared_load_u32() : w.global_load_u32());
        std::array<std::uint32_t, L> group = w.value;
        // A group that starts at byte 2 or 3 of its word runs into the next.
        w.mask_none();
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          if (staging[l] && shift[l] >= 16) {
            w.mask[l] = true;
            w.addr[l] += 4;
          }
        if (w.any_active())
          co_await (cooperative ? w.shared_load_u32() : w.global_load_u32());
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          if (staging[l])
            group[l] = group[l] >> shift[l] | (w.mask[l] ? w.value[l] << (32 - shift[l]) : 0);
        w.mask = staging;
        co_await w.compute(kGroupInstrs + (cooperative ? 0 : kUnpackStepInstrs));

        // Each code reads its byte from the warp's table.
        std::array<std::uint32_t, L> word{};
        for (std::uint32_t k = 0; k < 4; ++k) {
          for (std::uint32_t l = 0; l < w.lane_count; ++l)
            if (staging[l]) w.addr[l] = table + (group[l] >> (6 * k) & 63u);
          co_await w.shared_load_u8();
          w.mask = staging;
          for (std::uint32_t l = 0; l < w.lane_count; ++l)
            if (staging[l]) word[l] |= (w.value[l] & 0xffu) << (8 * k);
        }
        // Codes past the text's end are 0, so its partial last word keeps
        // only its first text_len - 4q bytes, as on the byte path.
        bool tail = false;
        for (std::uint32_t l = 0; l < w.lane_count; ++l) {
          const std::uint64_t q = block_base / 4 + widx[l];
          if (staging[l] && q * 4 + 4 > p.text_len) {
            word[l] &= (1u << (8 * (p.text_len - q * 4))) - 1;
            tail = true;
          }
        }
        w.value = word;
        co_await w.compute(kAssembleInstrs + (tail ? kUnpackTailInstrs : 0));
      }

      w.mask = staging;
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (staging[l])
          w.addr[l] = static_cast<DevAddr>(map_word(p.scheme, widx[l] / chunk_words,
                                                    widx[l] % chunk_words, chunk_words)) *
                      4;
      co_await w.shared_store_u32();
    }

    // The compressed table's root row, one class a thread, after the text.
    for (std::uint32_t first = 0; first < p.table.root_entries; first += T) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (first + w.thread_in_block(l) < p.table.root_entries) {
          w.mask[l] = true;
          w.addr[l] = p.table.root_addr + (first + w.thread_in_block(l)) * 4;
        }
      if (!w.any_active()) continue;
      co_await w.global_load_u32();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l]) w.addr[l] = p.root_shared + (w.addr[l] - p.table.root_addr);
      co_await w.shared_store_u32();
    }
    co_await w.barrier();
  }

  // ---------------- matching phase ----------------
  std::array<std::uint64_t, L> begin{};
  std::array<std::uint64_t, L> scan_len{};
  std::array<std::int32_t, L> state{};
  std::array<std::uint32_t, L> cnt{};
  std::array<bool, L> done{};  ///< left the overlap: no owned match remains
  std::uint64_t max_scan = 0;
  for (std::uint32_t l = 0; l < w.lane_count; ++l) {
    const std::uint64_t tg = w.global_thread(l);
    begin[l] = std::min<std::uint64_t>(p.text_len, tg * chunk);
    const std::uint64_t own_end = std::min<std::uint64_t>(p.text_len, begin[l] + chunk);
    const std::uint64_t se = std::min<std::uint64_t>(p.text_len, own_end + p.overlap);
    scan_len[l] = se - begin[l];
    max_scan = std::max(max_scan, scan_len[l]);
  }

  Columns col{};

  for (std::uint64_t i = 0; i < max_scan; ++i) {
    // Byte fetch: from the staged shared block or straight from global.
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (!done[l] && i < scan_len[l]) w.mask[l] = true;
    if (!w.any_active()) break;  // every lane has left its overlap
    const std::array<bool, L> scanning = w.mask;
    if (p.approach == Approach::kShared) {
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l]) {
          const std::uint32_t logical =
              w.thread_in_block(l) * p.chunk_bytes + static_cast<std::uint32_t>(i);
          w.addr[l] = map_byte(p.scheme, logical, p.chunk_bytes);
        }
      co_await w.shared_load_u8();
    } else {
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l]) w.addr[l] = p.text_addr + begin[l] + i;
      co_await w.global_load_u8();
    }
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (scanning[l]) col[l] = w.value[l] & 0xff;

    // State transition: one STT lookup per byte (texture or global ablation),
    // or up to three over the compressed table.
    w.mask = scanning;
    if (p.table.bitmap_words == 0) {
      co_await stt_read(w, p, state, col);
    } else {
      // The bitmap word holding the class's bit.
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (scanning[l]) {
          w.tex_x[l] = col[l] >> 5;
          w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
        }
      co_await w.tex_fetch();
      // Each lane's transition word lands in its own w.value: masked-off
      // lanes keep theirs, as a GPU register does under a divergent branch.
      const Columns bits = w.value;
      const auto bit_set = [&](std::uint32_t l) {
        return (bits[l] >> (col[l] & 31) & 1) != 0;
      };
      // A clear bit takes the root's transition from the staged root row.
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        w.mask[l] = scanning[l] && !bit_set(l);
        if (w.mask[l]) w.addr[l] = p.root_shared + col[l] * 4;
      }
      if (w.any_active()) co_await w.shared_load_u32();
      // A set bit reads its word's prefix base, then the target at its rank.
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        w.mask[l] = scanning[l] && bit_set(l);
        if (w.mask[l]) {
          w.tex_x[l] = p.table.bitmap_words + (col[l] >> 5);
          w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
        }
      }
      if (w.any_active()) {
        co_await w.tex_fetch();
        for (std::uint32_t l = 0; l < w.lane_count; ++l)
          if (w.mask[l]) {
            const std::uint32_t below = bits[l] & ((1u << (col[l] & 31)) - 1);
            const std::uint32_t rank =
                w.value[l] + static_cast<std::uint32_t>(std::popcount(below));
            w.tex_x[l] = rank % DeviceCompressedDfa::kTargetsWidth;
            w.tex_y[l] = rank / DeviceCompressedDfa::kTargetsWidth;
          }
        co_await w.tex_fetch2();
      }
      w.mask = scanning;
    }
    std::array<bool, L> flagged{};
    bool any_flagged = decode_transitions(w.value, scanning, state, flagged);

    // Overlap exit. Once the lane has consumed j >= 0 bytes past its chunk,
    // a later match starting inside the chunk would run through every byte
    // since then, so the state's string would be longer than j. A state of
    // depth <= j therefore ends the lane's owned matches, and a match it
    // accepts here is no longer than j, so it starts past the chunk too:
    // the lane stops without emitting. A saturated depth may be longer than
    // any j and never exits. Lanes whose chunk the text cuts short end their
    // scan there, so j counts from the full chunk.
    const bool past_chunk = i + 1 >= chunk;
    co_await w.compute(kComputePerByte +
                       (p.table.bitmap_words != 0 ? kRankInstrs : 0) +
                       (past_chunk ? kExitTestInstrs : 0));
    if (past_chunk) {
      const std::uint64_t j = i + 1 - chunk;
      any_flagged = false;
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        if (!scanning[l]) continue;
        const std::uint32_t depth = transition_depth(w.value[l]);
        if (depth < kMaxWordDepth && depth <= j) done[l] = true;
        flagged[l] = flagged[l] && !done[l];
        any_flagged |= flagged[l];
      }
    }
    if (!any_flagged) continue;

    // ---------------- match emission ----------------
    // One word per record, state * S + i (one mad24): the transition word
    // already says which state accepted, so the host expands its output set
    // and applies the chunk-ownership rule. Per-match table walks on the
    // device would serialise the warp on global latency. Slot-major
    // addresses put the lanes storing their k-th record in one 128 B
    // segment.
    bool any_store = false;
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!flagged[l]) continue;
      if (cnt[l] < p.slots) {
        w.mask[l] = true;
        w.addr[l] = p.records + (cnt[l] * p.record_threads + w.global_thread(l)) * 4;
        w.value[l] = static_cast<std::uint32_t>(state[l]) * p.scan_bound +
                     static_cast<std::uint32_t>(i);
        any_store = true;
      }
      ++cnt[l];
    }
    if (any_store) {
      co_await w.compute(1);
      co_await w.global_store_u32();
    }
  }

  // Final per-thread match count, clamped to its u16 word (one min).
  co_await w.compute(1);
  w.mask_all();
  for (std::uint32_t l = 0; l < w.lane_count; ++l) {
    w.addr[l] = p.counts + w.global_thread(l) * 2;
    w.value[l] = std::min(cnt[l], MatchBuffer::kMaxCount);
  }
  co_await w.global_store_u16();
}

}  // namespace

std::uint32_t staged_shared_bytes(std::uint32_t chunk_bytes, std::uint32_t threads_per_block,
                                  std::uint32_t symbol_bits) {
  // One chunk-sized area per thread plus a full chunk-sized tail region
  // (diagonal mapping needs the full region for the overlap).
  const std::uint32_t staged = (threads_per_block + 1) * chunk_bytes;
  if (symbol_bits != 6) return staged;
  return staged + (threads_per_block + L - 1) / L * kWarpAreaBytes;
}

gpusim::DevAddr upload_text(gpusim::DeviceMemory& mem, std::string_view text) {
  ACGPU_CHECK(!text.empty(), "upload_text: empty text");
  // Pad with zeros so staging can load whole words past the end.
  const DevAddr addr = mem.alloc(text.size() + 8);
  mem.copy_in(addr, text.data(), text.size());
  mem.fill(addr + text.size(), 0, 8);
  return addr;
}

gpusim::DevAddr upload_class_text(gpusim::DeviceMemory& mem, const DeviceDfa& ddfa,
                                  std::string_view text) {
  return upload_text(mem, ddfa.host_dfa().classes().map(text));
}

gpusim::DevAddr upload_class_text(gpusim::DeviceMemory& mem,
                                  const DeviceCompressedDfa& dcdfa,
                                  std::string_view text) {
  return upload_text(mem, dcdfa.host_dfa().classes().map(text));
}

namespace {

/// Everything run_ac_kernel computes before the launch — shared between the
/// plain and the stream-enqueued entry points.
struct AcPlan {
  KParams p;
  gpusim::LaunchDims dims;
  std::uint64_t threads = 0;
  std::uint64_t blocks = 0;
  std::uint32_t shared_bytes = 0;
  std::optional<MatchBuffer> buffer;
  gpusim::KernelFn kernel;
};

AcPlan plan_ac_launch(const gpusim::GpuConfig& config, gpusim::DeviceMemory& mem,
                      const ac::Dfa& dfa, const Table& table, gpusim::DevAddr text_addr,
                      std::uint64_t text_len, const AcLaunchSpec& spec,
                      const std::optional<SymbolTable>& symbols) {
  ACGPU_CHECK(text_len > 0, "run_ac_kernel: empty text");
  ACGPU_CHECK(!symbols || spec.approach == Approach::kShared,
              "packed text needs the shared approach: only its staging unpacks");
  const bool compressed = table.bitmap_words != 0;
  ACGPU_CHECK(!compressed || spec.approach == Approach::kShared,
              "the compressed table needs the shared approach: only its staging "
              "stages the root row");
  ACGPU_CHECK(!compressed || spec.stt_placement == SttPlacement::kTexture,
              "the compressed table is read through the texture path only");
  ACGPU_CHECK(spec.chunk_bytes > 0 && spec.chunk_bytes % 4 == 0,
              "chunk_bytes must be a positive multiple of 4, got " << spec.chunk_bytes);
  ACGPU_CHECK(spec.threads_per_block > 0, "threads_per_block must be positive");
  const std::uint32_t overlap =
      dfa.max_pattern_length() > 0 ? dfa.max_pattern_length() - 1 : 0;
  ACGPU_CHECK(overlap < spec.chunk_bytes,
              "max pattern length " << dfa.max_pattern_length()
                  << " requires chunks larger than " << spec.chunk_bytes << "B");

  const std::uint64_t threads = (text_len + spec.chunk_bytes - 1) / spec.chunk_bytes;
  const std::uint64_t blocks =
      (threads + spec.threads_per_block - 1) / spec.threads_per_block;
  const std::uint64_t threads_padded = blocks * spec.threads_per_block;

  const std::uint32_t bits = symbol_bits(symbols);
  ACGPU_CHECK(bits != 6 || spec.threads_per_block % Warp::kMaxLanes == 0,
              "6-bit packed text needs whole warps per block, got "
                  << spec.threads_per_block << " threads");
  // The compressed table's root row follows the staged text.
  const std::uint32_t root_shared =
      spec.approach == Approach::kShared
          ? staged_shared_bytes(spec.chunk_bytes, spec.threads_per_block, bits)
          : 0;
  const std::uint32_t shared_bytes = root_shared + table.root_entries * 4;
  ACGPU_CHECK(shared_bytes <= config.shared_mem_bytes,
              "staged block of " << shared_bytes << "B exceeds the SM's "
                                 << config.shared_mem_bytes << "B shared memory");

  const std::uint32_t scan_bound = spec.chunk_bytes + overlap;
  AcPlan plan;
  plan.buffer.emplace(mem, threads_padded, spec.match_capacity, scan_bound,
                      dfa.state_count());
  plan.threads = threads;
  plan.blocks = blocks;
  plan.shared_bytes = shared_bytes;

  KParams& p = plan.p;
  p.text_addr = text_addr;
  p.text_len = text_len;
  p.symbols = symbols;
  p.chunk_bytes = spec.chunk_bytes;
  p.overlap = overlap;
  p.threads_per_block = spec.threads_per_block;
  p.approach = spec.approach;
  p.scheme = spec.scheme;
  p.placement = spec.stt_placement;
  p.table = table;
  p.root_shared = root_shared;
  p.counts = plan.buffer->counts_base();
  p.records = plan.buffer->records_base();
  p.record_threads = plan.buffer->threads();
  p.slots = plan.buffer->slots();
  p.scan_bound = scan_bound;

  plan.dims.grid_blocks = blocks;
  plan.dims.block_threads = spec.threads_per_block;
  plan.dims.shared_bytes = shared_bytes;

  plan.kernel = [p](Warp& w) { return ac_kernel_body(w, p); };
  return plan;
}

AcLaunchOutcome collect_ac_outcome(const AcPlan& plan, gpusim::LaunchResult sim,
                                   const gpusim::DeviceMemory& mem, const ac::Dfa& dfa,
                                   std::uint64_t text_len, const AcLaunchSpec& spec) {
  AcLaunchOutcome outcome;
  outcome.sim = sim;
  outcome.threads = plan.threads;
  outcome.blocks = plan.blocks;
  outcome.shared_bytes = plan.shared_bytes;
  outcome.matches =
      expand_records(*plan.buffer, mem, StateOutputs{dfa}, spec.chunk_bytes, text_len);
  return outcome;
}

}  // namespace

AcLaunchOutcome run_ac_kernel(const gpusim::GpuConfig& config,
                              gpusim::DeviceMemory& mem, const DeviceDfa& ddfa,
                              gpusim::DevAddr text_addr, std::uint64_t text_len,
                              const AcLaunchSpec& spec,
                              std::optional<SymbolTable> symbols) {
  const ac::Dfa& dfa = ddfa.host_dfa();
  const AcPlan plan = plan_ac_launch(config, mem, dfa, table_of(ddfa), text_addr,
                                     text_len, spec, symbols);
  const gpusim::LaunchResult sim =
      gpusim::launch(config, mem, &ddfa.texture(), plan.dims, plan.kernel, spec.sim);
  return collect_ac_outcome(plan, sim, mem, dfa, text_len, spec);
}

AcLaunchOutcome run_ac_kernel(const gpusim::GpuConfig& config, gpusim::DeviceMemory& mem,
                              const DeviceCompressedDfa& dcdfa, gpusim::DevAddr text_addr,
                              std::uint64_t text_len, const AcLaunchSpec& spec,
                              std::optional<SymbolTable> symbols) {
  const ac::Dfa& dfa = dcdfa.host_dfa();
  const AcPlan plan = plan_ac_launch(config, mem, dfa, table_of(dcdfa), text_addr,
                                     text_len, spec, symbols);
  const gpusim::LaunchResult sim =
      gpusim::launch(config, mem, &dcdfa.rows_texture(), plan.dims, plan.kernel, spec.sim,
                     &dcdfa.targets_texture());
  return collect_ac_outcome(plan, sim, mem, dfa, text_len, spec);
}

AcLaunchOutcome run_ac_kernel_stream(gpusim::StreamSim& streams,
                                     gpusim::StreamId stream, const DeviceDfa& ddfa,
                                     gpusim::DevAddr text_addr, std::uint64_t text_len,
                                     const AcLaunchSpec& spec,
                                     std::optional<SymbolTable> symbols, std::string label) {
  const gpusim::GpuConfig& config = streams.config();
  gpusim::DeviceMemory& mem = streams.memory();
  const ac::Dfa& dfa = ddfa.host_dfa();
  const AcPlan plan = plan_ac_launch(config, mem, dfa, table_of(ddfa), text_addr,
                                     text_len, spec, symbols);
  const gpusim::LaunchResult sim =
      streams.launch(stream, &ddfa.texture(), plan.dims, plan.kernel, spec.sim,
                     nullptr, std::move(label));
  return collect_ac_outcome(plan, sim, mem, dfa, text_len, spec);
}

}  // namespace acgpu::kernels
