// Warp execution context: identity, lane operand buffers, and the awaitable
// instruction set a kernel coroutine programs against.
//
// Protocol: the kernel fills the lane buffers (addresses / store values /
// texture coordinates / active mask) and co_awaits one of the instruction
// helpers. The scheduler then inspects `pending`, applies the timing model,
// performs the data movement (loads fill `value`), and resumes the warp at
// the instruction's completion time.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>

#include "gpusim/device_memory.h"
#include "gpusim/shared_memory.h"
#include "gpusim/texture.h"

namespace acgpu::gpusim {

enum class OpKind : std::uint8_t {
  None,
  Compute,        ///< pending_instrs warp instructions, no memory
  GlobalLoadU8,   ///< addr -> value (zero-extended byte)
  GlobalLoadU32,  ///< addr -> value
  GlobalStoreU16, ///< low 16 bits of value -> addr
  GlobalStoreU32, ///< value -> addr
  SharedLoadU8,   ///< addr (shared space) -> value
  SharedLoadU32,
  SharedStoreU32,
  TexFetch,       ///< (tex_x, tex_y) -> value from the primary texture
  TexFetch2,      ///< same, from the secondary texture binding
  Barrier,        ///< __syncthreads
};

class Warp {
 public:
  static constexpr std::uint32_t kMaxLanes = 32;

  // --- identity (set by the scheduler at dispatch) --------------------------
  std::uint64_t block_id = 0;
  std::uint32_t warp_in_block = 0;
  std::uint32_t block_dim = 0;     ///< threads per block
  std::uint64_t grid_blocks = 0;
  std::uint32_t lane_count = 0;    ///< threads in this warp (< 32 for the tail warp)

  // --- memory handles (set by the scheduler) --------------------------------
  DeviceMemory* gmem = nullptr;
  SharedMemory* smem = nullptr;
  const Texture2D* tex = nullptr;
  const Texture2D* tex2 = nullptr;  ///< optional secondary texture

  // --- lane operand buffers --------------------------------------------------
  std::array<DevAddr, kMaxLanes> addr{};
  std::array<std::uint32_t, kMaxLanes> value{};
  std::array<std::uint32_t, kMaxLanes> tex_x{};
  std::array<std::uint32_t, kMaxLanes> tex_y{};
  std::array<bool, kMaxLanes> mask{};

  // --- pending instruction slot (read by the scheduler) ----------------------
  OpKind pending = OpKind::None;
  std::uint32_t pending_instrs = 0;

  /// Thread index within the block of lane `l`.
  std::uint32_t thread_in_block(std::uint32_t l) const {
    return warp_in_block * kMaxLanes + l;
  }
  /// Global thread index of lane `l`.
  std::uint64_t global_thread(std::uint32_t l) const {
    return block_id * block_dim + thread_in_block(l);
  }

  void mask_all() {
    for (std::uint32_t l = 0; l < kMaxLanes; ++l) mask[l] = l < lane_count;
  }
  void mask_none() { mask.fill(false); }
  bool any_active() const {
    for (std::uint32_t l = 0; l < lane_count; ++l)
      if (mask[l]) return true;
    return false;
  }

  // --- the instruction set ----------------------------------------------------
  struct [[nodiscard]] Await {
    Warp& warp;
    OpKind kind;
    std::uint32_t instrs;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) noexcept {
      warp.pending = kind;
      warp.pending_instrs = instrs;
    }
    void await_resume() const noexcept {}
  };

  /// Pure ALU work: `instrs` warp instructions (state update arithmetic,
  /// address computation, branches). Calibration hook for the timing model.
  Await compute(std::uint32_t instrs) { return {*this, OpKind::Compute, instrs}; }

  Await global_load_u8() { return {*this, OpKind::GlobalLoadU8, 1}; }
  Await global_load_u32() { return {*this, OpKind::GlobalLoadU32, 1}; }
  Await global_store_u16() { return {*this, OpKind::GlobalStoreU16, 1}; }
  Await global_store_u32() { return {*this, OpKind::GlobalStoreU32, 1}; }
  Await shared_load_u8() { return {*this, OpKind::SharedLoadU8, 1}; }
  Await shared_load_u32() { return {*this, OpKind::SharedLoadU32, 1}; }
  Await shared_store_u32() { return {*this, OpKind::SharedStoreU32, 1}; }
  Await tex_fetch() { return {*this, OpKind::TexFetch, 1}; }
  Await tex_fetch2() { return {*this, OpKind::TexFetch2, 1}; }
  Await barrier() { return {*this, OpKind::Barrier, 1}; }
};

}  // namespace acgpu::gpusim
