#include "kernels/pfac_kernel.h"

#include <algorithm>
#include <array>

#include "util/error.h"

namespace acgpu::kernels {

DevicePfac::DevicePfac(gpusim::DeviceMemory& mem, const ac::PfacAutomaton& pfac)
    : host_(&pfac), max_pattern_length_(pfac.max_pattern_length()) {
  const ac::SttMatrix& stt = pfac.stt();
  const gpusim::DevAddr stt_addr = mem.alloc(stt.size_bytes());
  mem.copy_in(stt_addr, stt.data(), stt.size_bytes());
  texture_ = gpusim::Texture2D(&mem, stt_addr, ac::SttMatrix::kColumns, stt.rows(),
                               stt.pitch());
}

namespace {

using gpusim::DevAddr;
using gpusim::Warp;
using gpusim::WarpTask;

constexpr std::uint32_t L = Warp::kMaxLanes;

struct KParams {
  DevAddr text_addr = 0;
  std::uint64_t text_len = 0;
  std::uint32_t max_len = 0;
  DevAddr counts = 0;
  DevAddr records = 0;
  std::uint64_t record_threads = 0;  ///< MatchBuffer threads: the slot stride
  std::uint32_t slots = 0;
};

/// ALU warp instructions charged per scanned byte.
constexpr std::uint32_t kComputePerByte = 6;

WarpTask pfac_kernel_body(Warp& w, KParams p) {
  // Lane l starts matching at text position global_thread(l); state -1 (dead)
  // retires the lane. Threads past the end start dead.
  std::array<std::int32_t, L> state{};
  std::array<std::uint32_t, L> cnt{};
  std::array<bool, L> alive{};
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    alive[l] = w.global_thread(l) < p.text_len;

  std::array<std::int32_t, L> oid{};

  for (std::uint32_t step = 0; step < p.max_len; ++step) {
    w.mask_none();
    bool any = false;
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      const std::uint64_t pos = w.global_thread(l) + step;
      if (alive[l] && pos < p.text_len) {
        w.mask[l] = true;
        w.addr[l] = p.text_addr + pos;
        any = true;
      } else {
        alive[l] = false;
      }
    }
    if (!any) break;
    const std::array<bool, L> scanning = w.mask;

    // At step 0 consecutive lanes read consecutive bytes — PFAC's naturally
    // coalesced access pattern; divergence sets in as lanes die.
    co_await w.global_load_u8();

    w.mask = scanning;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        w.tex_x[l] = 1 + (w.value[l] & 0xff);
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    co_await w.tex_fetch();
    bool any_alive = false;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (scanning[l]) {
        state[l] = static_cast<std::int32_t>(w.value[l]);
        if (state[l] == ac::PfacAutomaton::kDead) alive[l] = false;
        else any_alive = true;
      }
    co_await w.compute(kComputePerByte);
    if (!any_alive) break;

    // Terminal-output check for surviving lanes.
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (scanning[l] && alive[l]) {
        w.mask[l] = true;
        w.tex_x[l] = 0;
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    const std::array<bool, L> live = w.mask;
    co_await w.tex_fetch();
    bool any_match = false;
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      oid[l] = 0;
      if (live[l]) {
        oid[l] = static_cast<std::int32_t>(w.value[l]);
        if (oid[l] != 0) any_match = true;
      }
    }
    if (!any_match) continue;

    // One slot-major word per record, oid * max_len + step (one mad24); the
    // host expands the terminal set.
    bool any_store = false;
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!live[l] || oid[l] == 0) continue;
      if (cnt[l] < p.slots) {
        w.mask[l] = true;
        w.addr[l] = p.records + (cnt[l] * p.record_threads + w.global_thread(l)) * 4;
        w.value[l] = static_cast<std::uint32_t>(oid[l]) * p.max_len + step;
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

PfacLaunchOutcome run_pfac_kernel(const gpusim::GpuConfig& config,
                                  gpusim::DeviceMemory& mem, const DevicePfac& dpfac,
                                  gpusim::DevAddr text_addr, std::uint64_t text_len,
                                  const PfacLaunchSpec& spec) {
  ACGPU_CHECK(text_len > 0, "run_pfac_kernel: empty text");
  ACGPU_CHECK(spec.threads_per_block > 0, "threads_per_block must be positive");

  PfacLaunchOutcome outcome;
  outcome.threads = text_len;  // one thread per byte
  outcome.blocks =
      (outcome.threads + spec.threads_per_block - 1) / spec.threads_per_block;
  // A thread scans at most max_len bytes: the scan bound S.
  const MatchBuffer buffer(mem, outcome.blocks * spec.threads_per_block,
                           spec.match_capacity, dpfac.max_pattern_length(),
                           dpfac.host_automaton().output_id_count());

  KParams p;
  p.text_addr = text_addr;
  p.text_len = text_len;
  p.max_len = dpfac.max_pattern_length();
  p.counts = buffer.counts_base();
  p.records = buffer.records_base();
  p.record_threads = buffer.threads();
  p.slots = buffer.slots();

  gpusim::LaunchDims dims;
  dims.grid_blocks = outcome.blocks;
  dims.block_threads = spec.threads_per_block;
  dims.shared_bytes = 0;
  outcome.sim = gpusim::launch(
      config, mem, &dpfac.texture(), dims,
      [p](Warp& w) { return pfac_kernel_body(w, p); }, spec.sim);

  // One thread per byte: stride 1, and each record already starts at its
  // thread's byte.
  outcome.matches =
      expand_records(buffer, mem, dpfac.host_automaton(), 1, outcome.threads);
  return outcome;
}

}  // namespace acgpu::kernels
