#include "kernels/packet_kernel.h"

#include <algorithm>
#include <array>

#include "kernels/match_flag.h"
#include "util/error.h"

namespace acgpu::kernels {

DeviceBatch::DeviceBatch(gpusim::DeviceMemory& mem,
                         const workload::PacketTrace& trace)
    : packets_(static_cast<std::uint32_t>(trace.packet_count())),
      data_bytes_(trace.data.size()) {
  ACGPU_CHECK(packets_ > 0, "DeviceBatch: empty trace");
  data_addr_ = mem.alloc(trace.data.size() + 8);
  mem.copy_in(data_addr_, trace.data.data(), trace.data.size());
  mem.fill(data_addr_ + trace.data.size(), 0, 8);
  offsets_addr_ = mem.alloc(trace.offsets.size() * 4);
  mem.copy_in(offsets_addr_, trace.offsets.data(), trace.offsets.size() * 4);
}

namespace {

using gpusim::DevAddr;
using gpusim::Warp;
using gpusim::WarpTask;

constexpr std::uint32_t L = Warp::kMaxLanes;

struct KParams {
  DevAddr data = 0;
  DevAddr offsets = 0;
  std::uint32_t packets = 0;
  DevAddr counts = 0;
  DevAddr records = 0;
  std::uint32_t capacity = 0;
  std::uint32_t compute_per_byte = 0;
};

WarpTask packet_kernel_body(Warp& w, KParams p) {
  // Lane l inspects packet global_thread(l): fetch its bounds from the
  // offsets table (two coalesced loads — consecutive lanes read consecutive
  // offsets), then walk the DFA over the payload.
  std::array<std::uint64_t, L> begin{}, end{};
  std::array<std::int32_t, L> state{};
  std::array<std::uint32_t, L> cnt{};
  std::array<std::int32_t, L> oid{};

  w.mask_none();
  for (std::uint32_t l = 0; l < w.lane_count; ++l) {
    if (w.global_thread(l) < p.packets) {
      w.mask[l] = true;
      w.addr[l] = p.offsets + w.global_thread(l) * 4;
    }
  }
  if (!w.any_active()) co_return;
  const std::array<bool, L> active = w.mask;
  co_await w.global_load_u32();
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (active[l]) begin[l] = w.value[l];
  w.mask = active;
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (w.mask[l]) w.addr[l] = p.offsets + (w.global_thread(l) + 1) * 4;
  co_await w.global_load_u32();
  std::uint64_t max_len = 0;
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (active[l]) {
      end[l] = w.value[l];
      max_len = std::max(max_len, end[l] - begin[l]);
    }

  for (std::uint64_t i = 0; i < max_len; ++i) {
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (active[l] && begin[l] + i < end[l]) {
        w.mask[l] = true;
        w.addr[l] = p.data + begin[l] + i;
      }
    const std::array<bool, L> scanning = w.mask;
    if (!w.any_active()) break;
    co_await w.global_load_u8();

    w.mask = scanning;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        w.tex_x[l] = 1 + (w.value[l] & 0xff);
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    co_await w.tex_fetch();
    std::array<bool, L> flagged{};
    const bool any_flagged = decode_transitions(w.value, scanning, state, flagged);
    co_await w.compute(p.compute_per_byte);
    if (!any_flagged) continue;

    // Output id of the new state, for flagged lanes only.
    w.mask = flagged;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) {
        w.tex_x[l] = 0;
        w.tex_y[l] = static_cast<std::uint32_t>(state[l]);
      }
    co_await w.tex_fetch();
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (flagged[l]) oid[l] = static_cast<std::int32_t>(w.value[l]);

    std::array<bool, L> storing{};
    bool any_store = false;
    w.mask_none();
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!flagged[l]) continue;
      if (cnt[l] < p.capacity) {
        storing[l] = true;
        w.mask[l] = true;
        w.addr[l] = p.records + (w.global_thread(l) * p.capacity + cnt[l]) * 8;
        w.value[l] = static_cast<std::uint32_t>(i);  // offset inside the packet
        any_store = true;
      }
      ++cnt[l];
    }
    if (any_store) {
      co_await w.global_store_u32();
      w.mask = storing;
      for (std::uint32_t l = 0; l < w.lane_count; ++l)
        if (w.mask[l]) {
          w.addr[l] += 4;
          w.value[l] = static_cast<std::uint32_t>(oid[l]);
        }
      co_await w.global_store_u32();
    }
  }

  w.mask = active;
  for (std::uint32_t l = 0; l < w.lane_count; ++l)
    if (w.mask[l]) {
      w.addr[l] = p.counts + w.global_thread(l) * 4;
      w.value[l] = cnt[l];
    }
  co_await w.global_store_u32();
}

}  // namespace

PacketLaunchOutcome run_packet_kernel(const gpusim::GpuConfig& config,
                                      gpusim::DeviceMemory& mem,
                                      const DeviceDfa& ddfa, const DeviceBatch& batch,
                                      const PacketLaunchSpec& spec) {
  ACGPU_CHECK(spec.threads_per_block > 0, "threads_per_block must be positive");
  const std::uint64_t blocks =
      (batch.packet_count() + spec.threads_per_block - 1) / spec.threads_per_block;
  MatchBuffer buffer(mem, blocks * spec.threads_per_block, spec.match_capacity);

  KParams p;
  p.data = batch.data_addr();
  p.offsets = batch.offsets_addr();
  p.packets = batch.packet_count();
  p.counts = buffer.counts_base();
  p.records = buffer.records_base();
  p.capacity = spec.match_capacity;
  p.compute_per_byte = spec.compute_per_byte;

  gpusim::LaunchDims dims;
  dims.grid_blocks = blocks;
  dims.block_threads = spec.threads_per_block;
  dims.shared_bytes = 0;

  PacketLaunchOutcome outcome;
  outcome.sim = gpusim::launch(
      config, mem, &ddfa.texture(), dims,
      [p](Warp& w) { return packet_kernel_body(w, p); }, spec.sim);
  outcome.blocks = blocks;

  const ac::Dfa& dfa = ddfa.host_dfa();
  const MatchBuffer::RawCollected raw = buffer.collect_records(mem);
  outcome.total_reported = raw.total_reported;
  outcome.overflowed = raw.overflowed;
  for (const MatchBuffer::Record& rec : raw.records) {
    for (const std::int32_t* pid =
             dfa.id_output_begin(static_cast<std::int32_t>(rec.word1));
         pid != dfa.id_output_end(static_cast<std::int32_t>(rec.word1)); ++pid) {
      outcome.matches.push_back(PacketMatch{static_cast<std::uint32_t>(rec.thread),
                                            rec.word0, *pid});
    }
  }
  std::sort(outcome.matches.begin(), outcome.matches.end());
  return outcome;
}

}  // namespace acgpu::kernels
