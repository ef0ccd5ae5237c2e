// 2-D int32 texture view over device memory — how the paper binds the STT.
//
// A texture is read-only, addressed by (x=column, y=row), with a row pitch
// so rows can be segment-aligned. The scheduler's texture caches
// (util::SetAssocCache) model the on-chip caching; this class only does
// addressing and data fetch.
#pragma once

#include <cstdint>

#include "gpusim/device_memory.h"

namespace acgpu::gpusim {

class Texture2D {
 public:
  Texture2D() = default;

  /// Binds `rows` x `width` int32 elements at `base`, rows `pitch_elems`
  /// elements apart (pitch_elems >= width).
  Texture2D(const DeviceMemory* mem, DevAddr base, std::uint32_t width,
            std::uint32_t rows, std::uint32_t pitch_elems);

  std::uint32_t width() const { return width_; }
  std::uint32_t rows() const { return rows_; }

  /// Byte address of element (x, y) — what the texture cache indexes on.
  DevAddr addr_of(std::uint32_t x, std::uint32_t y) const {
    return base_ + (static_cast<DevAddr>(y) * pitch_elems_ + x) * 4;
  }

  /// Data fetch (bounds-checked against the bound region).
  std::int32_t fetch(std::uint32_t x, std::uint32_t y) const {
    ACGPU_CHECK(x < width_ && y < rows_,
                "texture fetch (" << x << "," << y << ") outside " << width_
                    << "x" << rows_ << " binding");
    return mem_->load_i32(addr_of(x, y));
  }

  bool bound() const { return mem_ != nullptr; }

 private:
  const DeviceMemory* mem_ = nullptr;
  DevAddr base_ = 0;
  std::uint32_t width_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t pitch_elems_ = 0;
};

}  // namespace acgpu::gpusim
