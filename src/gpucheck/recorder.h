// The access recorder: a gpusim::AccessObserver that watches every memory
// instruction, barrier event, and block/warp lifecycle of a launch and runs
// the hazard analyzers of ISSUE's racecheck/memcheck family over the stream:
//
//   * shared-memory races   — per-byte shadow of the last writer and the last
//     two distinct readers; conflicting accesses (>= 1 store) from threads
//     of different warps, or from two lanes of one warp instruction, in the
//     same barrier epoch are a race (a warp's lanes run in lockstep, so its
//     instructions are ordered). One hazard per instruction pair, so a
//     16-lane conflicting store reports once.
//   * read-before-write     — a shared load of bytes no thread has stored
//     since block start (the shadow's writer slot is empty).
//   * out-of-bounds         — shared accesses past the block's region, device
//     accesses past the allocation point, texel fetches outside the binding.
//     Offending lanes are suppressed (loads read 0) so the audit continues.
//   * global write races    — same-byte device stores from two threads with
//     no ordering (different blocks, or same block and same barrier epoch).
//   * coalescing lint       — per warp-load transaction counts vs the ideal
//     of a contiguous packing at the request's lowest address (stats; the
//     audit layer turns budget breaches into hazards).
//   * bank-conflict stats   — per shared access conflict degree through
//     gpusim::bank_conflicts (stats; budgets applied by the audit layer).
//     Banks, conflict group and coalescing segment are the observed launch's
//     own (AccessObserver::launch_started), so the audit costs accesses on
//     the geometry gpusim simulates.
//   * barrier divergence    — the scheduler's divergence callback, plus a
//     per-warp arrival-count cross-check when the block retires.
//
// One Recorder instance covers one launch (or several launches of the same
// logical kernel — block ids must not repeat while a block is in flight).
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpucheck/report.h"
#include "gpusim/access_observer.h"
#include "gpusim/warp.h"

namespace acgpu::gpucheck {

class Recorder final : public gpusim::AccessObserver {
 public:
  /// Keeps at most `max_hazards` exemplars; occurrences keep counting.
  explicit Recorder(std::size_t max_hazards = kMaxHazards);

  const AuditReport& report() const { return report_; }
  AuditReport take_report() { return std::move(report_); }

  // --- gpusim::AccessObserver ------------------------------------------------
  void launch_started(const gpusim::GpuConfig& config) override;
  void block_started(std::uint64_t block_id, std::uint32_t num_warps,
                     std::uint32_t block_threads,
                     std::uint32_t shared_bytes) override;
  void block_finished(std::uint64_t block_id) override;
  std::uint32_t memory_access(const gpusim::Warp& warp,
                              gpusim::OpKind kind) override;
  void barrier_arrival(const gpusim::Warp& warp) override;
  void barrier_release(std::uint64_t block_id) override;
  void barrier_divergence(std::uint64_t block_id,
                          const gpusim::Warp& warp) override;

 private:
  /// One prior access to a byte, compact enough for a per-byte shadow.
  struct ByteAccess {
    std::int64_t thread = -1;  ///< < 0: slot empty
    std::uint32_t epoch = 0;
    std::uint64_t instr = 0;
    std::uint64_t base = 0;  ///< base address of the access
    std::uint8_t width = 0;
    gpusim::OpKind op{};
  };
  /// Shadow state of one shared byte: the last writer plus up to two readers
  /// from distinct threads (two, so T1-read / T2-read / T2-store still
  /// surfaces the T1/T2 write-after-read race).
  struct SharedByte {
    ByteAccess writer;
    ByteAccess reader;
    ByteAccess reader2;
  };

  struct BlockState {
    std::uint32_t shared_bytes = 0;
    std::uint32_t epoch = 0;
    std::uint64_t next_instr = 0;
    std::vector<SharedByte> shadow;             ///< size shared_bytes
    std::vector<std::uint32_t> barrier_counts;  ///< arrivals per warp
    std::set<std::pair<std::uint64_t, std::uint64_t>> race_pairs;
    std::set<std::uint64_t> uninit_instrs;
    std::set<std::uint64_t> oob_instrs;
    bool divergence_reported = false;
  };

  /// Owner of the last store to one device-memory byte.
  struct GlobalByte {
    std::uint64_t block = 0;
    std::int64_t thread = -1;
    std::uint32_t epoch = 0;
    std::uint64_t instr = 0;
    std::uint64_t base = 0;
    gpusim::OpKind op{};  ///< the store's opcode, which fixes its width
  };

  /// Whether two accesses to one shared byte in the same barrier epoch
  /// race. The modelled GT200 runs a warp's lanes in lockstep: each warp
  /// instruction completes before the warp issues its next, so the lanes of
  /// one warp are ordered by their instructions (a warp-synchronous exchange
  /// through shared memory needs no barrier), and only threads of different
  /// warps, or two lanes of one instruction, race.
  static bool unordered(const ByteAccess& prior, const ByteAccess& cur);

  BlockState& block_state(std::uint64_t block_id);
  AccessSite site_of(const gpusim::Warp& warp, std::uint32_t lane,
                     gpusim::OpKind op, std::uint64_t instr, std::uint64_t addr,
                     std::uint8_t width, bool is_store,
                     std::uint32_t epoch) const;
  AccessSite site_of_byte(std::uint64_t block_id, const ByteAccess& access,
                          bool is_store) const;
  void add_hazard(HazardKind kind, std::string message, AccessSite first,
                  AccessSite second = {});

  std::uint32_t shared_access(const gpusim::Warp& warp, gpusim::OpKind kind,
                              BlockState& bs, std::uint64_t instr);
  std::uint32_t global_access(const gpusim::Warp& warp, gpusim::OpKind kind,
                              BlockState& bs, std::uint64_t instr);
  std::uint32_t tex_access(const gpusim::Warp& warp, gpusim::OpKind kind,
                           BlockState& bs, std::uint64_t instr);

  std::size_t max_hazards_;
  /// The observed launch's shared-memory and coalescing geometry.
  std::uint32_t banks_ = 0;
  std::uint32_t conflict_group_ = 0;
  std::uint32_t segment_bytes_ = 0;
  AuditReport report_;
  std::unordered_map<std::uint64_t, BlockState> blocks_;
  std::unordered_map<std::uint64_t, GlobalByte> global_shadow_;
  std::set<std::array<std::uint64_t, 4>> global_race_pairs_;
};

}  // namespace acgpu::gpucheck
