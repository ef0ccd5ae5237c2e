#include "gpucheck/recorder.h"

#include <algorithm>
#include <sstream>

#include "gpusim/coalescer.h"
#include "gpusim/config.h"
#include "gpusim/shared_memory.h"
#include "gpusim/texture.h"

namespace acgpu::gpucheck {

using gpusim::OpKind;
using gpusim::Warp;

Recorder::Recorder(std::size_t max_hazards) : max_hazards_(max_hazards) {}

void Recorder::launch_started(const gpusim::GpuConfig& config) {
  banks_ = config.shared_banks;
  conflict_group_ = config.shared_conflict_group;
  segment_bytes_ = config.coalesce_segment_bytes;
}

bool Recorder::unordered(const ByteAccess& prior, const ByteAccess& cur) {
  if (prior.thread == cur.thread) return false;
  return prior.thread / Warp::kMaxLanes != cur.thread / Warp::kMaxLanes ||
         prior.instr == cur.instr;
}

Recorder::BlockState& Recorder::block_state(std::uint64_t block_id) {
  return blocks_[block_id];
}

AccessSite Recorder::site_of(const Warp& warp, std::uint32_t lane, OpKind op,
                             std::uint64_t instr, std::uint64_t addr,
                             std::uint8_t width, bool is_store,
                             std::uint32_t epoch) const {
  AccessSite site;
  site.block = warp.block_id;
  site.warp = warp.warp_in_block;
  site.lane = lane;
  site.thread = warp.thread_in_block(lane);
  site.epoch = epoch;
  site.instr = instr;
  site.addr = addr;
  site.width = width;
  site.is_store = is_store;
  site.op = op;
  return site;
}

AccessSite Recorder::site_of_byte(std::uint64_t block_id,
                                  const ByteAccess& access,
                                  bool is_store) const {
  AccessSite site;
  site.block = block_id;
  site.warp = static_cast<std::uint32_t>(access.thread) / Warp::kMaxLanes;
  site.lane = static_cast<std::uint32_t>(access.thread) % Warp::kMaxLanes;
  site.thread = access.thread;
  site.epoch = access.epoch;
  site.instr = access.instr;
  site.addr = access.base;
  site.width = access.width;
  site.is_store = is_store;
  site.op = access.op;
  return site;
}

void Recorder::add_hazard(HazardKind kind, std::string message,
                          AccessSite first, AccessSite second) {
  ++report_.occurrences[static_cast<std::size_t>(kind)];
  if (report_.hazards.size() >= max_hazards_) {
    ++report_.dropped_hazards;
    return;
  }
  Hazard h;
  h.kind = kind;
  h.message = std::move(message);
  h.first = first;
  h.second = second;
  report_.hazards.push_back(std::move(h));
}

void Recorder::block_started(std::uint64_t block_id, std::uint32_t num_warps,
                             std::uint32_t block_threads,
                             std::uint32_t shared_bytes) {
  (void)block_threads;
  BlockState& bs = blocks_[block_id];
  bs = BlockState{};
  bs.shared_bytes = shared_bytes;
  bs.shadow.resize(shared_bytes);
  bs.barrier_counts.assign(num_warps, 0);
  ++report_.blocks;
  report_.warps += num_warps;
}

void Recorder::block_finished(std::uint64_t block_id) {
  auto it = blocks_.find(block_id);
  if (it == blocks_.end()) return;
  BlockState& bs = it->second;
  if (!bs.divergence_reported && !bs.barrier_counts.empty()) {
    const auto [lo, hi] =
        std::minmax_element(bs.barrier_counts.begin(), bs.barrier_counts.end());
    if (*lo != *hi) {
      std::ostringstream msg;
      msg << "warps of block " << block_id
          << " reached unequal barrier counts (warp "
          << (lo - bs.barrier_counts.begin()) << ": " << *lo << ", warp "
          << (hi - bs.barrier_counts.begin()) << ": " << *hi << ")";
      add_hazard(HazardKind::kBarrierDivergence, msg.str(), {});
    }
  }
  blocks_.erase(it);
}

void Recorder::barrier_arrival(const Warp& warp) {
  BlockState& bs = block_state(warp.block_id);
  if (warp.warp_in_block < bs.barrier_counts.size())
    ++bs.barrier_counts[warp.warp_in_block];
}

void Recorder::barrier_release(std::uint64_t block_id) {
  ++block_state(block_id).epoch;
  ++report_.barriers;
}

void Recorder::barrier_divergence(std::uint64_t block_id, const Warp& warp) {
  BlockState& bs = block_state(block_id);
  bs.divergence_reported = true;
  std::ostringstream msg;
  msg << "warp " << warp.warp_in_block << " (threads "
      << warp.thread_in_block(0) << ".."
      << warp.thread_in_block(warp.lane_count - 1) << ") of block " << block_id
      << " finished without reaching the barrier its sibling warp(s) were "
         "waiting at (epoch "
      << bs.epoch << ")";
  AccessSite site;
  site.block = block_id;
  site.warp = warp.warp_in_block;
  site.lane = 0;
  site.thread = warp.thread_in_block(0);
  site.epoch = bs.epoch;
  site.instr = bs.next_instr;
  site.op = OpKind::Barrier;
  add_hazard(HazardKind::kBarrierDivergence, msg.str(), site);
}

std::uint32_t Recorder::memory_access(const Warp& warp, OpKind kind) {
  BlockState& bs = block_state(warp.block_id);
  const std::uint64_t instr = bs.next_instr++;
  ++report_.accesses;
  switch (kind) {
    case OpKind::SharedLoadU8:
    case OpKind::SharedLoadU32:
    case OpKind::SharedStoreU32:
      return shared_access(warp, kind, bs, instr);
    case OpKind::GlobalLoadU8:
    case OpKind::GlobalLoadU32:
    case OpKind::GlobalStoreU16:
    case OpKind::GlobalStoreU32:
      return global_access(warp, kind, bs, instr);
    case OpKind::TexFetch:
    case OpKind::TexFetch2:
      return tex_access(warp, kind, bs, instr);
    default:
      return 0;
  }
}

std::uint32_t Recorder::shared_access(const Warp& warp, OpKind kind,
                                      BlockState& bs, std::uint64_t instr) {
  const bool is_store = kind == OpKind::SharedStoreU32;
  const std::uint8_t width = kind == OpKind::SharedLoadU8 ? 1 : 4;
  const std::uint64_t size = warp.smem ? warp.smem->size() : 0;
  if (bs.shadow.size() < size) bs.shadow.resize(size);
  std::uint32_t suppress = 0;

  // Lane-indexed, so the bank model groups lanes by half-warp (OOB lanes
  // stay out of the mask).
  std::array<std::uint32_t, Warp::kMaxLanes> bank_addrs{};
  std::uint32_t bank_lanes = 0;
  std::uint32_t worst_lane = 0;
  std::uint64_t uninit_bytes = 0;
  std::uint64_t first_uninit_addr = 0;
  std::int32_t first_uninit_lane = -1;

  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l]) continue;
    const auto a = static_cast<std::uint32_t>(warp.addr[l]);
    if (a + std::uint64_t{width} > size) {
      suppress |= 1u << l;
      if (bs.oob_instrs.insert(instr).second) {
        std::ostringstream msg;
        msg << "shared " << (is_store ? "store" : "load") << " of "
            << static_cast<unsigned>(width) << " byte(s) at 0x" << std::hex << a
            << std::dec << " outside the " << size << "-byte block region";
        add_hazard(HazardKind::kSharedOutOfBounds, msg.str(),
                   site_of(warp, l, kind, instr, a, width, is_store, bs.epoch));
      }
      continue;
    }
    if (bank_lanes == 0) worst_lane = l;
    bank_addrs[l] = a;
    bank_lanes |= 1u << l;

    ByteAccess cur;
    cur.thread = warp.thread_in_block(l);
    cur.epoch = bs.epoch;
    cur.instr = instr;
    cur.base = a;
    cur.width = width;
    cur.op = kind;
    for (std::uint32_t b = a; b < a + width; ++b) {
      SharedByte& sb = bs.shadow[b];
      if (is_store) {
        const ByteAccess* prior = nullptr;
        if (sb.writer.thread >= 0 && sb.writer.epoch == bs.epoch &&
            unordered(sb.writer, cur)) {
          prior = &sb.writer;
        } else if (sb.reader.thread >= 0 && sb.reader.epoch == bs.epoch &&
                   unordered(sb.reader, cur)) {
          prior = &sb.reader;
        } else if (sb.reader2.thread >= 0 && sb.reader2.epoch == bs.epoch &&
                   unordered(sb.reader2, cur)) {
          prior = &sb.reader2;
        }
        if (prior != nullptr &&
            bs.race_pairs.insert({std::min(prior->instr, instr),
                                  std::max(prior->instr, instr)})
                .second) {
          const bool prior_store = prior == &sb.writer;
          std::ostringstream msg;
          msg << "conflicting shared accesses to byte 0x" << std::hex << b
              << std::dec << " in barrier epoch " << bs.epoch << ": thread "
              << prior->thread << " (" << (prior_store ? "store" : "load")
              << ") vs thread " << cur.thread
              << " (store) with no __syncthreads between them";
          add_hazard(HazardKind::kSharedRace, msg.str(),
                     site_of_byte(warp.block_id, *prior, prior_store),
                     site_of(warp, l, kind, instr, a, width, true, bs.epoch));
        }
        sb.writer = cur;
      } else {
        if (sb.writer.thread < 0) {
          ++uninit_bytes;
          if (first_uninit_lane < 0) {
            first_uninit_lane = static_cast<std::int32_t>(l);
            first_uninit_addr = b;
          }
        } else if (sb.writer.epoch == bs.epoch &&
                   unordered(sb.writer, cur) &&
                   bs.race_pairs.insert({std::min(sb.writer.instr, instr),
                                         std::max(sb.writer.instr, instr)})
                       .second) {
          std::ostringstream msg;
          msg << "conflicting shared accesses to byte 0x" << std::hex << b
              << std::dec << " in barrier epoch " << bs.epoch << ": thread "
              << sb.writer.thread << " (store) vs thread " << cur.thread
              << " (load) with no __syncthreads between them";
          add_hazard(HazardKind::kSharedRace, msg.str(),
                     site_of_byte(warp.block_id, sb.writer, true),
                     site_of(warp, l, kind, instr, a, width, false, bs.epoch));
        }
        // Track up to two readers from distinct threads.
        if (sb.reader.thread < 0 || sb.reader.thread == cur.thread)
          sb.reader = cur;
        else
          sb.reader2 = cur;
      }
    }
  }

  if (uninit_bytes > 0 && bs.uninit_instrs.insert(instr).second) {
    const auto lane = static_cast<std::uint32_t>(first_uninit_lane);
    std::ostringstream msg;
    msg << "shared load reads " << uninit_bytes
        << " byte(s) never stored by the block, first at 0x" << std::hex
        << first_uninit_addr << std::dec;
    add_hazard(HazardKind::kUninitSharedRead, msg.str(),
               site_of(warp, lane, kind, instr, warp.addr[lane], width, false,
                       bs.epoch));
  }

  if (bank_lanes != 0) {
    const gpusim::BankCost bc = gpusim::bank_conflicts(
        std::span<const std::uint32_t>(bank_addrs.data(), warp.lane_count), banks_,
        conflict_group_, bank_lanes);
    ++report_.bank.accesses;
    if (bc.max_degree > 1) ++report_.bank.conflicted_accesses;
    if (bc.max_degree > report_.bank.max_degree) {
      report_.bank.max_degree = bc.max_degree;
      report_.bank.worst = site_of(warp, worst_lane, kind, instr,
                                   bank_addrs[worst_lane], width, is_store, bs.epoch);
    }
  }
  return suppress;
}

std::uint32_t Recorder::global_access(const Warp& warp, OpKind kind,
                                      BlockState& bs, std::uint64_t instr) {
  const bool is_store = kind == OpKind::GlobalStoreU16 || kind == OpKind::GlobalStoreU32;
  const std::uint8_t width = kind == OpKind::GlobalLoadU8    ? 1
                             : kind == OpKind::GlobalStoreU16 ? 2
                                                              : 4;
  const std::uint64_t limit = warp.gmem ? warp.gmem->allocated() : 0;
  std::uint32_t suppress = 0;

  std::array<gpusim::DevAddr, Warp::kMaxLanes> in_bounds{};
  std::uint32_t n = 0;
  std::uint32_t first_lane = 0;

  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l]) continue;
    const std::uint64_t a = warp.addr[l];
    if (a + width > limit) {
      suppress |= 1u << l;
      if (bs.oob_instrs.insert(instr).second) {
        std::ostringstream msg;
        msg << "global " << (is_store ? "store" : "load") << " of "
            << static_cast<unsigned>(width) << " byte(s) at 0x" << std::hex << a
            << std::dec << " beyond the device allocation point (" << limit
            << " bytes allocated)";
        add_hazard(HazardKind::kGlobalOutOfBounds, msg.str(),
                   site_of(warp, l, kind, instr, a, width, is_store, bs.epoch));
      }
      continue;
    }
    if (n == 0) first_lane = l;
    if (n < in_bounds.size()) in_bounds[n++] = a;

    if (is_store) {
      const std::int64_t thread = warp.thread_in_block(l);
      for (std::uint64_t b = a; b < a + width; ++b) {
        GlobalByte& owner = global_shadow_[b];
        const bool racy =
            owner.thread >= 0 &&
            (owner.block != warp.block_id ||
             (owner.thread != thread && owner.epoch == bs.epoch));
        if (racy && global_race_pairs_
                        .insert({owner.block, owner.instr, warp.block_id, instr})
                        .second) {
          ByteAccess prior;
          prior.thread = owner.thread;
          prior.epoch = owner.epoch;
          prior.instr = owner.instr;
          prior.base = owner.base;
          prior.width = owner.op == OpKind::GlobalStoreU16 ? 2 : 4;
          prior.op = owner.op;
          std::ostringstream msg;
          msg << "unordered global stores to byte 0x" << std::hex << b
              << std::dec << ": block " << owner.block << " thread "
              << owner.thread << " vs block " << warp.block_id << " thread "
              << thread;
          add_hazard(HazardKind::kGlobalWriteRace, msg.str(),
                     site_of_byte(owner.block, prior, true),
                     site_of(warp, l, kind, instr, a, width, true, bs.epoch));
        }
        owner.block = warp.block_id;
        owner.thread = thread;
        owner.epoch = bs.epoch;
        owner.instr = instr;
        owner.base = a;
        owner.op = kind;
      }
    }
  }

  if (!is_store && n > 0) {
    const gpusim::CoalesceResult c =
        gpusim::coalesce(std::span<const gpusim::DevAddr>(in_bounds.data(), n),
                         width, segment_bytes_);
    const gpusim::DevAddr lo =
        *std::min_element(in_bounds.begin(), in_bounds.begin() + n);
    // Ideal: the segments a contiguous packing of the accessed bytes would
    // touch, starting at the request's own lowest address — alignment the
    // kernel cannot avoid is not penalised, scatter and stride are.
    const std::uint64_t span_end = lo + std::uint64_t{n} * width;
    const auto ideal = static_cast<std::uint32_t>(
        (span_end - 1) / segment_bytes_ - lo / segment_bytes_ + 1);
    CoalescingStats& cs = report_.coalescing;
    const bool staging_class = bs.epoch == 0 && kind == OpKind::GlobalLoadU32;
    ++cs.load_requests;
    cs.load_transactions += c.transactions;
    cs.ideal_transactions += ideal;
    if (staging_class) ++cs.staging_requests;
    if (c.transactions > ideal) {
      ++cs.excess_requests;
      const std::uint32_t gap = c.transactions - ideal;
      if (!cs.worst.valid() || gap > cs.worst_actual - cs.worst_ideal) {
        cs.worst_actual = c.transactions;
        cs.worst_ideal = ideal;
        cs.worst = site_of(warp, first_lane, kind, instr, in_bounds[0], width,
                           false, bs.epoch);
      }
      if (staging_class) {
        ++cs.staging_excess;
        if (!cs.staging_worst.valid() ||
            gap > cs.staging_worst_actual - cs.staging_worst_ideal) {
          cs.staging_worst_actual = c.transactions;
          cs.staging_worst_ideal = ideal;
          cs.staging_worst = site_of(warp, first_lane, kind, instr,
                                     in_bounds[0], width, false, bs.epoch);
        }
      }
    }
  }
  return suppress;
}

std::uint32_t Recorder::tex_access(const Warp& warp, OpKind kind,
                                   BlockState& bs, std::uint64_t instr) {
  const gpusim::Texture2D* tex =
      kind == OpKind::TexFetch ? warp.tex : warp.tex2;
  if (tex == nullptr || !tex->bound()) return 0;
  std::uint32_t suppress = 0;
  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l]) continue;
    const std::uint32_t x = warp.tex_x[l];
    const std::uint32_t y = warp.tex_y[l];
    if (x < tex->width() && y < tex->rows()) continue;
    suppress |= 1u << l;
    if (bs.oob_instrs.insert(instr).second) {
      std::ostringstream msg;
      msg << "texel fetch (" << x << "," << y << ") outside the "
          << tex->width() << "x" << tex->rows() << " texture binding";
      add_hazard(HazardKind::kTextureOutOfBounds, msg.str(),
                 site_of(warp, l, kind, instr, tex->addr_of(x, y), 4, false,
                         bs.epoch));
    }
  }
  return suppress;
}

}  // namespace acgpu::gpucheck
