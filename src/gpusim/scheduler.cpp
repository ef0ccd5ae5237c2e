#include "gpusim/scheduler.h"

#include <algorithm>
#include <bit>

#include "gpusim/coalescer.h"
#include "util/error.h"

namespace acgpu::gpusim {

Scheduler::Scheduler(const GpuConfig& config, DeviceMemory& gmem,
                     const Texture2D* tex, const LaunchDims& dims, KernelFn kernel,
                     const Texture2D* tex2, AccessObserver* observer)
    : cfg_(config), gmem_(gmem), tex_(tex), tex2_(tex2), dims_(dims),
      kernel_(std::move(kernel)), observer_(observer) {
  ACGPU_CHECK(dims.grid_blocks > 0, "launch with zero blocks");
  ACGPU_CHECK(dims.block_threads > 0 && dims.block_threads <= cfg_.max_threads_per_sm,
              "block of " << dims.block_threads << " threads is not launchable");
  warps_per_block_ = (dims.block_threads + Warp::kMaxLanes - 1) / Warp::kMaxLanes;
  sms_.resize(cfg_.num_sms);
  for (auto& sm : sms_)
    sm.tcache = std::make_unique<util::SetAssocCache>(cfg_.tex_cache_bytes,
                                                      cfg_.tex_cache_line_bytes,
                                                      cfg_.tex_cache_assoc);
  tex_l2_ = std::make_unique<util::SetAssocCache>(cfg_.tex_l2_bytes,
                                                  cfg_.tex_cache_line_bytes,
                                                  cfg_.tex_l2_assoc);
  if (observer_) observer_->launch_started(cfg_);
}

void Scheduler::schedule(WarpRun* w, double time) {
  events_.push(Event{time, next_seq_++, w});
}

void Scheduler::dispatch_block(std::uint64_t block_id, std::uint32_t sm, double time) {
  auto block = std::make_unique<BlockRun>();
  block->block_id = block_id;
  block->sm = sm;
  if (dims_.shared_bytes > 0)
    block->smem = std::make_unique<SharedMemory>(dims_.shared_bytes);
  block->warps.reserve(warps_per_block_);
  for (std::uint32_t wi = 0; wi < warps_per_block_; ++wi) {
    auto wr = std::make_unique<WarpRun>();
    Warp& warp = wr->warp;
    warp.block_id = block_id;
    warp.warp_in_block = wi;
    warp.block_dim = dims_.block_threads;
    warp.grid_blocks = dims_.grid_blocks;
    warp.lane_count =
        std::min(Warp::kMaxLanes, dims_.block_threads - wi * Warp::kMaxLanes);
    warp.gmem = &gmem_;
    warp.smem = block->smem.get();
    warp.tex = tex_;
    warp.tex2 = tex2_;
    wr->block = block.get();
    wr->task = kernel_(warp);
    ACGPU_CHECK(wr->task.valid(), "kernel factory returned an invalid task");
    block->warps.push_back(std::move(wr));
  }
  sms_[sm].resident++;
  if (observer_)
    observer_->block_started(block_id, warps_per_block_, dims_.block_threads,
                             dims_.shared_bytes);
  for (auto& wr : block->warps) schedule(wr.get(), time);
  active_blocks_.push_back(std::move(block));
}

void Scheduler::finish_block(BlockRun* block, double time) {
  ACGPU_CHECK(block->barrier_queue.empty(),
              "block " << block->block_id << " finished with warps stuck at a barrier");
  const std::uint32_t sm = block->sm;
  sms_[sm].resident--;
  metrics_.blocks_completed++;
  if (observer_) observer_->block_finished(block->block_id);
  auto it = std::find_if(active_blocks_.begin(), active_blocks_.end(),
                         [&](const auto& b) { return b.get() == block; });
  ACGPU_CHECK(it != active_blocks_.end(), "finished block not found among active blocks");
  active_blocks_.erase(it);
  if (!pending_blocks_.empty()) {
    const std::uint64_t next = pending_blocks_.back();
    pending_blocks_.pop_back();
    dispatch_block(next, sm, time);
  }
}

double Scheduler::handle_global(WarpRun* w, double issued) {
  Warp& warp = w->warp;
  const bool is_store = warp.pending == OpKind::GlobalStoreU16 ||
                        warp.pending == OpKind::GlobalStoreU32;
  const std::uint32_t width = warp.pending == OpKind::GlobalLoadU8    ? 1
                              : warp.pending == OpKind::GlobalStoreU16 ? 2
                                                                       : 4;
  const std::uint32_t suppress =
      observer_ ? observer_->memory_access(warp, warp.pending) : 0;

  std::array<DevAddr, Warp::kMaxLanes> active{};
  std::size_t n = 0;
  for (std::uint32_t l = 0; l < warp.lane_count; ++l)
    if (warp.mask[l]) active[n++] = warp.addr[l];
  if (n == 0) return issued;

  const CoalesceResult c =
      coalesce(std::span<const DevAddr>(active.data(), n), width,
               cfg_.coalesce_segment_bytes);
  metrics_.global_requests++;
  metrics_.global_transactions += c.transactions;
  metrics_.global_bytes += c.bytes;

  mem_pipe_free_ = std::max(mem_pipe_free_, issued) +
                   c.transactions * cfg_.cycles_per_segment;

  // Data movement happens at issue order (the event loop processes events in
  // time order, so memory effects are applied in a consistent global order).
  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l]) continue;
    if ((suppress >> l) & 1u) {
      if (!is_store) warp.value[l] = 0;
      continue;
    }
    switch (warp.pending) {
      case OpKind::GlobalLoadU8:
        warp.value[l] = gmem_.load_u8(warp.addr[l]);
        break;
      case OpKind::GlobalLoadU32:
        warp.value[l] = gmem_.load_u32(warp.addr[l]);
        break;
      case OpKind::GlobalStoreU16:
        gmem_.store_u16(warp.addr[l], static_cast<std::uint16_t>(warp.value[l]));
        break;
      case OpKind::GlobalStoreU32:
        gmem_.store_u32(warp.addr[l], warp.value[l]);
        break;
      default:
        ACGPU_CHECK(false, "unreachable global op");
    }
  }

  if (is_store) return issued;  // stores retire through the pipe; warp proceeds
  const double ready = mem_pipe_free_ + cfg_.global_latency_cycles;
  metrics_.stall_global_cycles += static_cast<std::uint64_t>(ready - issued);
  return ready;
}

double Scheduler::handle_shared(WarpRun* w, double issued) {
  Warp& warp = w->warp;
  ACGPU_CHECK(warp.smem != nullptr, "shared access in a kernel launched without shared memory");
  const std::uint32_t suppress =
      observer_ ? observer_->memory_access(warp, warp.pending) : 0;

  std::array<std::uint32_t, Warp::kMaxLanes> addrs{};
  std::uint32_t active = 0;
  for (std::uint32_t l = 0; l < warp.lane_count; ++l)
    if (warp.mask[l]) {
      addrs[l] = static_cast<std::uint32_t>(warp.addr[l]);
      active |= 1u << l;
    }
  if (active == 0) return issued;

  const BankCost bc =
      bank_conflicts(std::span<const std::uint32_t>(addrs.data(), warp.lane_count),
                     cfg_.shared_banks, cfg_.shared_conflict_group, active);
  metrics_.shared_requests++;
  metrics_.shared_groups += bc.groups;
  metrics_.shared_conflict_cycles += (bc.total_degree - bc.groups) * cfg_.shared_service_cycles;
  metrics_.shared_max_degree = std::max<std::uint64_t>(metrics_.shared_max_degree, bc.max_degree);

  Sm& sm = sms_[w->block->sm];
  const double unit_start = std::max(issued, sm.shared_free);
  const double cost = bc.total_degree * cfg_.shared_service_cycles;
  sm.shared_free = unit_start + cost;

  // GT200 replays a bank-conflicting access once per extra way, consuming
  // issue slots the other warps of the SM cannot use.
  const double replay =
      static_cast<double>(bc.total_degree - bc.groups) * cfg_.cycles_per_warp_instr;
  sm.issue_free = std::max(sm.issue_free, issued) + replay;
  metrics_.issue_cycles += static_cast<std::uint64_t>(replay);

  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l]) continue;
    if ((suppress >> l) & 1u) {
      if (warp.pending != OpKind::SharedStoreU32) warp.value[l] = 0;
      continue;
    }
    const auto a = static_cast<std::uint32_t>(warp.addr[l]);
    switch (warp.pending) {
      case OpKind::SharedLoadU8:
        warp.value[l] = warp.smem->load_u8(a);
        break;
      case OpKind::SharedLoadU32:
        warp.value[l] = warp.smem->load_u32(a);
        break;
      case OpKind::SharedStoreU32:
        warp.smem->store_u32(a, warp.value[l]);
        break;
      default:
        ACGPU_CHECK(false, "unreachable shared op");
    }
  }

  const double ready = unit_start + cost;
  metrics_.stall_shared_cycles += static_cast<std::uint64_t>(ready - issued);
  return ready;
}

double Scheduler::handle_tex(WarpRun* w, double issued, const Texture2D* texture) {
  Warp& warp = w->warp;
  ACGPU_CHECK(texture != nullptr && texture->bound(),
              "texture fetch without a bound texture");
  const std::uint32_t suppress =
      observer_ ? observer_->memory_access(warp, warp.pending) : 0;
  for (std::uint32_t l = 0; l < warp.lane_count; ++l)
    if (warp.mask[l] && ((suppress >> l) & 1u)) warp.value[l] = 0;

  // Distinct cache lines touched by the warp's active lanes.
  Sm& sm = sms_[w->block->sm];
  std::array<DevAddr, Warp::kMaxLanes> lines{};
  std::size_t n_lines = 0;
  std::uint32_t lane_fetches = 0;
  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l] || ((suppress >> l) & 1u)) continue;
    ++lane_fetches;
    const DevAddr line =
        texture->addr_of(warp.tex_x[l], warp.tex_y[l]) >> sm.tcache->line_shift();
    bool dup = false;
    for (std::size_t j = 0; j < n_lines; ++j)
      if (lines[j] == line) {
        dup = true;
        break;
      }
    if (!dup) lines[n_lines++] = line;
  }
  if (lane_fetches == 0) return issued;

  std::uint32_t l1_miss_lines = 0;
  std::uint32_t l2_miss_lines = 0;
  for (std::size_t j = 0; j < n_lines; ++j) {
    const DevAddr line_addr = lines[j] << sm.tcache->line_shift();
    if (sm.tcache->access(line_addr)) continue;
    ++l1_miss_lines;
    if (!tex_l2_->access(line_addr)) ++l2_miss_lines;
  }

  metrics_.tex_requests++;
  metrics_.tex_lane_fetches += lane_fetches;
  metrics_.tex_misses += l1_miss_lines;
  metrics_.tex_l2_misses += l2_miss_lines;

  const double unit_start = std::max(issued, sm.tex_free);
  sm.tex_free = unit_start + cfg_.tex_hit_cycles;
  double ready = unit_start + cfg_.tex_hit_cycles;
  if (l1_miss_lines > 0) {
    // L1 misses served from the GPU-wide texture L2; lines missing there
    // move through the global memory system.
    ready = std::max(ready, unit_start + cfg_.tex_l2_latency_cycles);
    if (l2_miss_lines > 0) {
      const double line_occupancy = cfg_.cycles_per_segment *
                                    sm.tcache->line_bytes() /
                                    cfg_.coalesce_segment_bytes;
      mem_pipe_free_ =
          std::max(mem_pipe_free_, unit_start) + l2_miss_lines * line_occupancy;
      ready = std::max(ready, mem_pipe_free_ + cfg_.tex_miss_latency_cycles);
    }
  }

  for (std::uint32_t l = 0; l < warp.lane_count; ++l) {
    if (!warp.mask[l] || ((suppress >> l) & 1u)) continue;
    warp.value[l] =
        static_cast<std::uint32_t>(texture->fetch(warp.tex_x[l], warp.tex_y[l]));
  }

  metrics_.stall_tex_cycles += static_cast<std::uint64_t>(ready - issued);
  return ready;
}

void Scheduler::release_barrier(BlockRun* block, double release, double issued) {
  for (WarpRun* waiting : block->barrier_queue) {
    metrics_.stall_barrier_cycles += static_cast<std::uint64_t>(release - issued);
    schedule(waiting, release);
  }
  block->barrier_queue.clear();
  block->barrier_latest_arrival = 0;
  if (observer_) observer_->barrier_release(block->block_id);
}

void Scheduler::step_warp(WarpRun* w, double t) {
  Sm& sm = sms_[w->block->sm];

  // Wait for the SM issue port (FCFS in event-time order), then execute.
  const double start = std::max(t, sm.issue_free);
  w->warp.pending = OpKind::None;
  w->task.resume();

  if (w->task.done()) {
    metrics_.warps_completed++;
    BlockRun* block = w->block;
    ++block->done_warps;
    if (observer_) {
      observer_->warp_finished(w->warp);
      // Audit mode: a warp exited while siblings wait at a barrier it never
      // reached. Report the divergence and release the waiters so the block
      // can be audited to completion (without an observer this deadlocks
      // into the hard "unfinished blocks" error below).
      const std::uint32_t live =
          static_cast<std::uint32_t>(block->warps.size()) - block->done_warps;
      if (!block->barrier_queue.empty() && block->barrier_queue.size() == live) {
        observer_->barrier_divergence(block->block_id, w->warp);
        release_barrier(block, block->barrier_latest_arrival + cfg_.barrier_cycles,
                        start);
      }
    }
    if (block->done_warps == block->warps.size()) finish_block(block, start);
    last_time_ = std::max(last_time_, start);
    return;
  }

  Warp& warp = w->warp;
  const std::uint32_t instrs =
      warp.pending == OpKind::Compute ? std::max(1u, warp.pending_instrs) : 1u;
  const double issue_time = static_cast<double>(instrs) * cfg_.cycles_per_warp_instr;
  const double issued = start + issue_time;
  sm.issue_free = issued;
  metrics_.warp_instructions += instrs;
  metrics_.issue_cycles += static_cast<std::uint64_t>(issue_time);

  double ready = issued;
  switch (warp.pending) {
    case OpKind::Compute:
      break;
    case OpKind::GlobalLoadU8:
    case OpKind::GlobalLoadU32:
    case OpKind::GlobalStoreU16:
    case OpKind::GlobalStoreU32:
      ready = handle_global(w, issued);
      break;
    case OpKind::SharedLoadU8:
    case OpKind::SharedLoadU32:
    case OpKind::SharedStoreU32:
      ready = handle_shared(w, issued);
      break;
    case OpKind::TexFetch:
      ready = handle_tex(w, issued, warp.tex);
      break;
    case OpKind::TexFetch2:
      ready = handle_tex(w, issued, warp.tex2);
      break;
    case OpKind::Barrier: {
      BlockRun* block = w->block;
      metrics_.barriers++;
      if (observer_) observer_->barrier_arrival(warp);
      block->barrier_queue.push_back(w);
      block->barrier_latest_arrival = std::max(block->barrier_latest_arrival, issued);
      const std::uint32_t live =
          static_cast<std::uint32_t>(block->warps.size()) - block->done_warps;
      ACGPU_CHECK(block->barrier_queue.size() <= live,
                  "barrier arrivals exceed live warps in block " << block->block_id);
      if (block->barrier_queue.size() == live)
        release_barrier(block, block->barrier_latest_arrival + cfg_.barrier_cycles,
                        issued);
      last_time_ = std::max(last_time_, issued);
      return;  // resumption scheduled by the barrier release
    }
    case OpKind::None:
      ACGPU_CHECK(false, "warp suspended without a pending instruction");
  }

  last_time_ = std::max(last_time_, ready);
  schedule(w, ready);
}

RunStats Scheduler::run(const std::vector<std::uint64_t>& block_ids) {
  ACGPU_CHECK(!block_ids.empty(), "Scheduler::run with no blocks");
  metrics_ = Metrics{};
  last_time_ = 0;
  mem_pipe_free_ = 0;
  for (auto& sm : sms_) {
    sm.issue_free = sm.shared_free = sm.tex_free = 0;
    sm.resident = 0;
    sm.tcache->clear();
  }
  tex_l2_->clear();

  const std::uint32_t occupancy =
      cfg_.occupancy_blocks(dims_.block_threads, dims_.shared_bytes);

  // Pending stack holds the tail of the id list; initial waves fill SMs
  // round-robin, mirroring the hardware block scheduler.
  pending_blocks_.assign(block_ids.rbegin(), block_ids.rend());
  std::uint32_t sm_rr = 0;
  for (std::uint32_t wave = 0; wave < occupancy && !pending_blocks_.empty(); ++wave) {
    for (std::uint32_t s = 0; s < cfg_.num_sms && !pending_blocks_.empty(); ++s) {
      const std::uint64_t id = pending_blocks_.back();
      pending_blocks_.pop_back();
      dispatch_block(id, sm_rr % cfg_.num_sms, 0.0);
      ++sm_rr;
    }
  }

  while (!events_.empty()) {
    const Event ev = events_.top();
    events_.pop();
    step_warp(ev.warp, ev.time);
  }
  ACGPU_CHECK(active_blocks_.empty() && pending_blocks_.empty(),
              "simulation drained its event queue with unfinished blocks (deadlock?)");

  RunStats stats;
  stats.makespan_cycles = last_time_;
  stats.simulated_blocks = block_ids.size();
  stats.metrics = metrics_;
  return stats;
}

}  // namespace acgpu::gpusim
