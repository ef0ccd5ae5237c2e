#include "kernels/compressed_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "kernels/match_flag.h"
#include "kernels/store_scheme.h"
#include "util/error.h"

namespace acgpu::kernels {

DeviceCompressedDfa::DeviceCompressedDfa(gpusim::DeviceMemory& mem,
                                         const ac::CompressedStt& stt,
                                         const ac::Dfa& dfa)
    : dfa_(&dfa) {
  ACGPU_CHECK(stt.state_count() == dfa.state_count(),
              "DeviceCompressedDfa: compressed table does not match the DFA");
  const std::uint32_t states = stt.state_count();

  // Rows texture: 17 columns per state, pitch padded to 20 (one 32 B line
  // covers the 8 bitmap words). Prefix bases let the kernel compute a
  // target's rank with ONE extra fetch instead of walking all bitmap words.
  const std::uint32_t pitch = 20;
  const gpusim::DevAddr rows_addr =
      mem.alloc(static_cast<std::size_t>(states) * pitch * 4);
  for (std::uint32_t s = 0; s < states; ++s) {
    const gpusim::DevAddr row = rows_addr + static_cast<std::uint64_t>(s) * pitch * 4;
    std::uint32_t prefix = stt.row_base(static_cast<std::int32_t>(s));
    for (std::uint32_t w = 0; w < 8; ++w) {
      const std::uint32_t bits = stt.row_bitmap(static_cast<std::int32_t>(s), w);
      mem.store_u32(row + w * 4, bits);
      mem.store_u32(row + (8 + w) * 4, prefix);
      prefix += static_cast<std::uint32_t>(std::popcount(bits));
    }
    mem.store_i32(row + 16 * 4, stt.output_id(static_cast<std::int32_t>(s)));
  }
  rows_tex_ = gpusim::Texture2D(&mem, rows_addr, kRowColumns, states, pitch);

  // Targets texture: explicit transitions with the target's flag and depth
  // bits (match_flag.h; this kernel reads only the flag).
  const std::vector<std::uint8_t> top = state_target_bytes(dfa);
  const auto& targets = stt.targets();
  const std::uint32_t rows =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                     (targets.size() + kTargetsWidth - 1) / kTargetsWidth));
  const gpusim::DevAddr targets_addr =
      mem.alloc(static_cast<std::size_t>(rows) * kTargetsWidth * 4);
  for (std::size_t i = 0; i < targets.size(); ++i)
    mem.store_u32(targets_addr + i * 4,
                  encode_transition(targets[i], top[static_cast<std::size_t>(targets[i])]));
  targets_tex_ = gpusim::Texture2D(&mem, targets_addr, kTargetsWidth, rows,
                                   kTargetsWidth);

  // Root row (fallback transitions), match flags packed, staged to shared
  // memory by every block.
  root_addr_ = mem.alloc(256 * 4);
  for (std::uint32_t b = 0; b < 256; ++b) {
    const std::int32_t next = stt.root_next(static_cast<std::uint8_t>(b));
    mem.store_u32(root_addr_ + b * 4,
                  encode_transition(next, top[static_cast<std::size_t>(next)]));
  }

  device_bytes_ = static_cast<std::size_t>(states) * pitch * 4 +
                  static_cast<std::size_t>(rows) * kTargetsWidth * 4 + 256 * 4;
}

namespace {

using gpusim::DevAddr;
using gpusim::Warp;
using gpusim::WarpTask;

constexpr std::uint32_t L = Warp::kMaxLanes;

struct KParams {
  DevAddr text_addr = 0;
  std::uint64_t text_len = 0;
  std::uint32_t chunk_bytes = 0;
  std::uint32_t overlap = 0;
  std::uint32_t threads_per_block = 0;
  DevAddr root_addr = 0;
  std::uint32_t root_shared_base = 0;  ///< shared offset of the staged root row
  DevAddr counts = 0;
  DevAddr records = 0;
  std::uint64_t record_threads = 0;  ///< MatchBuffer threads: the slot stride
  std::uint32_t slots = 0;
  std::uint32_t scan_bound = 0;  ///< S = chunk + overlap, the record radix
  std::uint32_t compute_per_byte = 0;
};

WarpTask compressed_kernel_body(Warp& w, KParams p) {
  const std::uint64_t chunk = p.chunk_bytes;
  const std::uint32_t chunk_words = p.chunk_bytes / 4;
  const std::uint32_t T = p.threads_per_block;
  const std::uint64_t block_base =
      w.block_id * static_cast<std::uint64_t>(T) * chunk;

  // ---- stage the input block (cooperative, diagonal scheme) ----
  {
    const std::uint64_t data_end =
        std::min<std::uint64_t>(p.text_len, block_base + static_cast<std::uint64_t>(T) * chunk);
    const std::uint64_t scan_end = std::min<std::uint64_t>(p.text_len, data_end + p.overlap);
    const std::uint32_t total_words =
        (static_cast<std::uint32_t>(scan_end - block_base) + 3) / 4;
    const std::uint32_t steps = (total_words + T - 1) / T;
    std::array<std::uint32_t, L> widx{};
    for (std::uint32_t step = 0; step < steps; ++step) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        const std::uint32_t wi = step * T + w.thread_in_block(l);
        if (wi < total_words) {
          w.mask[l] = true;
          widx[l] = wi;
          w.addr[l] = p.text_addr + block_base + static_cast<std::uint64_t>(wi) * 4;
        }
      }
      if (!w.any_active()) continue;
      const std::array<bool, L> loading = w.mask;
      co_await w.global_load_u32();
      w.mask = loading;
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l])
          w.addr[l] = static_cast<DevAddr>(map_word(StoreScheme::kDiagonal,
                                                    widx[l] / chunk_words,
                                                    widx[l] % chunk_words,
                                                    chunk_words)) *
                      4;
      co_await w.shared_store_u32();
    }
  }
  // ---- stage the root row into shared memory ----
  {
    const std::uint32_t steps = (256 + T - 1) / T;
    for (std::uint32_t step = 0; step < steps; ++step) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l) {
        const std::uint32_t idx = step * T + w.thread_in_block(l);
        if (idx < 256) {
          w.mask[l] = true;
          w.addr[l] = p.root_addr + idx * 4;
        }
      }
      if (!w.any_active()) continue;
      const std::array<bool, L> loading = w.mask;
      co_await w.global_load_u32();
      w.mask = loading;
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l]) {
          const std::uint32_t idx = step * T + w.thread_in_block(l);
          w.addr[l] = p.root_shared_base + idx * 4;
        }
      co_await w.shared_store_u32();
    }
  }
  co_await w.barrier();

  // ---- matching ----
  std::array<std::uint64_t, L> begin{}, own_end{}, scan_len{};
  std::array<std::int32_t, L> state{};
  std::array<std::uint32_t, L> cnt{}, byte{}, bits{}, packed{};
  std::uint64_t max_scan = 0;
  for (std::uint32_t l = 0; l < w.lane_count; ++l) {
    const std::uint64_t tg = w.global_thread(l);
    begin[l] = std::min<std::uint64_t>(p.text_len, tg * chunk);
    own_end[l] = std::min<std::uint64_t>(p.text_len, begin[l] + chunk);
    const std::uint64_t se = std::min<std::uint64_t>(p.text_len, own_end[l] + p.overlap);
    scan_len[l] = se - begin[l];
    max_scan = std::max(max_scan, scan_len[l]);
  }

  for (std::uint64_t i = 0; i < max_scan; ++i) {
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (i < scan_len[l]) w.mask[l] = true;
    const std::array<bool, L> scanning = w.mask;
    if (!w.any_active()) break;

    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        const std::uint32_t logical =
            w.thread_in_block(l) * p.chunk_bytes + static_cast<std::uint32_t>(i);
        w.addr[l] = map_byte(StoreScheme::kDiagonal, logical, p.chunk_bytes);
      }
    co_await w.shared_load_u8();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (scanning[l]) byte[l] = w.value[l] & 0xff;

    // Bitmap word of the (state, byte) entry.
    w.mask = scanning;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        w.tex_x[l] = byte[l] >> 5;
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    co_await w.tex_fetch();
    std::array<bool, L> explicit_lane{};
    bool any_explicit = false, any_default = false;
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!scanning[l]) continue;
      bits[l] = w.value[l];
      explicit_lane[l] = (bits[l] >> (byte[l] & 31)) & 1;
      (explicit_lane[l] ? any_explicit : any_default) = true;
    }

    // Default lanes: root-row fallback from shared memory.
    if (any_default) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (scanning[l] && !explicit_lane[l]) {
          w.mask[l] = true;
          w.addr[l] = p.root_shared_base + byte[l] * 4;
        }
      co_await w.shared_load_u32();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (scanning[l] && !explicit_lane[l]) packed[l] = w.value[l];
    }
    // Explicit lanes: prefix base then the packed target.
    if (any_explicit) {
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (explicit_lane[l]) {
          w.mask[l] = true;
          w.tex_x[l] = 8 + (byte[l] >> 5);
          w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
        }
      co_await w.tex_fetch();
      std::array<std::uint32_t, L> rank{};
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (explicit_lane[l]) {
          const std::uint32_t bit = byte[l] & 31;
          const std::uint32_t below =
              bit == 0 ? 0u
                       : static_cast<std::uint32_t>(
                             std::popcount(bits[l] & (~0u >> (32 - bit))));
          rank[l] = w.value[l] + below;
        }
      w.mask_none();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (explicit_lane[l]) {
          w.mask[l] = true;
          w.tex_x[l] = rank[l] % DeviceCompressedDfa::kTargetsWidth;
          w.tex_y[l] = rank[l] / DeviceCompressedDfa::kTargetsWidth;
        }
      co_await w.tex_fetch2();
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (explicit_lane[l]) packed[l] = w.value[l];
    }

    std::array<bool, L> matched{};
    const bool any_match = decode_transitions(packed, scanning, state, matched);
    co_await w.compute(p.compute_per_byte);
    if (!any_match) continue;

    // Output id of match states (rows texture column 16), then the records.
    w.mask = matched;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (matched[l]) {
        w.tex_x[l] = 16;
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    co_await w.tex_fetch();

    // One slot-major word per record, oid * S + i: ac_kernel.cpp's layout,
    // with the output id this kernel reads in place of the state.
    std::array<std::uint32_t, L> oid{};
    bool any_store = false;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (matched[l]) oid[l] = w.value[l];
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!matched[l]) continue;
      if (cnt[l] < p.slots) {
        w.mask[l] = true;
        w.addr[l] = p.records + (cnt[l] * p.record_threads + w.global_thread(l)) * 4;
        w.value[l] = oid[l] * p.scan_bound + static_cast<std::uint32_t>(i);
        any_store = true;
      }
      ++cnt[l];
    }
    if (any_store) {
      co_await w.compute(1);
      co_await w.global_store_u32();
    }
  }

  co_await w.compute(1);
  w.mask_all();
  for (std::uint32_t l = 0; l < w.lane_count; ++l) {
    w.addr[l] = p.counts + w.global_thread(l) * 2;
    w.value[l] = std::min(cnt[l], MatchBuffer::kMaxCount);
  }
  co_await w.global_store_u16();
}

}  // namespace

AcLaunchOutcome run_compressed_kernel(const gpusim::GpuConfig& config,
                                      gpusim::DeviceMemory& mem,
                                      const DeviceCompressedDfa& dcdfa,
                                      gpusim::DevAddr text_addr,
                                      std::uint64_t text_len,
                                      const CompressedLaunchSpec& spec) {
  ACGPU_CHECK(text_len > 0, "run_compressed_kernel: empty text");
  ACGPU_CHECK(spec.chunk_bytes > 0 && spec.chunk_bytes % 4 == 0,
              "chunk_bytes must be a positive multiple of 4");
  const std::uint32_t overlap =
      dcdfa.max_pattern_length() > 0 ? dcdfa.max_pattern_length() - 1 : 0;
  ACGPU_CHECK(overlap < spec.chunk_bytes,
              "max pattern length requires chunks larger than " << spec.chunk_bytes);

  const std::uint64_t threads = (text_len + spec.chunk_bytes - 1) / spec.chunk_bytes;
  const std::uint64_t blocks =
      (threads + spec.threads_per_block - 1) / spec.threads_per_block;

  // Staged input (+ tail region) plus the 1 KB root row.
  const std::uint32_t input_bytes = (spec.threads_per_block + 1) * spec.chunk_bytes;
  const std::uint32_t shared_bytes = input_bytes + 256 * 4;
  ACGPU_CHECK(shared_bytes <= config.shared_mem_bytes,
              "staged block of " << shared_bytes << "B exceeds shared memory");

  const ac::Dfa& dfa = dcdfa.host_dfa();
  const std::uint32_t scan_bound = spec.chunk_bytes + overlap;
  MatchBuffer buffer(mem, blocks * spec.threads_per_block, spec.match_capacity,
                     scan_bound, dfa.output_id_count());

  KParams p;
  p.text_addr = text_addr;
  p.text_len = text_len;
  p.chunk_bytes = spec.chunk_bytes;
  p.overlap = overlap;
  p.threads_per_block = spec.threads_per_block;
  p.root_addr = dcdfa.root_row_addr();
  p.root_shared_base = input_bytes;
  p.counts = buffer.counts_base();
  p.records = buffer.records_base();
  p.record_threads = buffer.threads();
  p.slots = buffer.slots();
  p.scan_bound = scan_bound;
  p.compute_per_byte = spec.compute_per_byte;

  gpusim::LaunchDims dims;
  dims.grid_blocks = blocks;
  dims.block_threads = spec.threads_per_block;
  dims.shared_bytes = shared_bytes;

  AcLaunchOutcome outcome;
  outcome.sim = gpusim::launch(
      config, mem, &dcdfa.rows_texture(), dims,
      [p](Warp& w) { return compressed_kernel_body(w, p); }, spec.sim,
      &dcdfa.targets_texture());
  outcome.threads = threads;
  outcome.blocks = blocks;
  outcome.shared_bytes = shared_bytes;

  outcome.matches = expand_records(buffer, mem, dfa, spec.chunk_bytes, text_len);
  return outcome;
}

}  // namespace acgpu::kernels
