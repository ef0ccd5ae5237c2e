// Simulated device (global) memory: one flat little-endian address space
// with a bump allocator, mirroring cudaMalloc + cudaMemcpy.
//
// The arena comes from calloc, so its capacity is reserved, not committed:
// a page costs host memory only once the simulation writes it, and an
// untouched byte still reads as zero. A 256 MiB device that stages a few
// megabytes costs a few megabytes. (Sanitizer runtimes may zero-fill calloc
// and so commit the whole arena; nothing relies on the saving.)
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/error.h"

namespace acgpu::gpusim {

/// Byte address in simulated device memory.
using DevAddr = std::uint64_t;

class DeviceMemory {
 public:
  /// `capacity` bytes of device memory (GTX 285: 1 GB), all reading zero.
  explicit DeviceMemory(std::size_t capacity);

  /// A moved arena keeps its bytes and allocation point; the source is left
  /// empty (capacity 0).
  DeviceMemory(DeviceMemory&& other) noexcept;
  DeviceMemory& operator=(DeviceMemory&& other) noexcept;

  std::size_t capacity() const { return capacity_; }
  std::size_t allocated() const { return next_; }
  /// Bytes a default-aligned allocation can still take.
  std::size_t available() const {
    const std::size_t base = align_up(next_);
    return base < capacity_ ? capacity_ - base : 0;
  }
  /// `offset` rounded up to `align`, a power of two: where alloc() would
  /// place a buffer when the allocation point is at `offset`.
  static std::size_t align_up(std::size_t offset, std::size_t align = 256) {
    return (offset + align - 1) & ~(align - 1);
  }

  /// Bump allocation, 256-byte aligned by default (texture/segment friendly).
  DevAddr alloc(std::size_t bytes, std::size_t align = 256);

  /// Stack discipline for sweeps: mark() the allocator position, allocate
  /// per-configuration buffers, then release(mark) to reuse the space.
  std::size_t mark() const { return next_; }
  void release(std::size_t m) {
    ACGPU_CHECK(m <= next_, "DeviceMemory::release: mark " << m
                                << " is above the allocation point " << next_);
    next_ = m;
  }

  /// Host -> device copy (cudaMemcpyHostToDevice).
  void copy_in(DevAddr dst, const void* src, std::size_t bytes);
  /// Device -> host copy (cudaMemcpyDeviceToHost).
  void copy_out(void* dst, DevAddr src, std::size_t bytes) const;
  void fill(DevAddr dst, std::uint8_t value, std::size_t bytes);

  std::uint8_t load_u8(DevAddr a) const {
    bounds_check(a, 1);
    return bytes_[a];
  }
  std::uint32_t load_u32(DevAddr a) const {
    bounds_check(a, 4);
    std::uint32_t v;
    std::memcpy(&v, bytes_.get() + a, 4);
    return v;
  }
  std::uint16_t load_u16(DevAddr a) const {
    bounds_check(a, 2);
    std::uint16_t v;
    std::memcpy(&v, bytes_.get() + a, 2);
    return v;
  }
  std::int32_t load_i32(DevAddr a) const {
    return static_cast<std::int32_t>(load_u32(a));
  }
  void store_u8(DevAddr a, std::uint8_t v) {
    bounds_check(a, 1);
    bytes_[a] = v;
  }
  void store_u16(DevAddr a, std::uint16_t v) {
    bounds_check(a, 2);
    std::memcpy(bytes_.get() + a, &v, 2);
  }
  void store_u32(DevAddr a, std::uint32_t v) {
    bounds_check(a, 4);
    std::memcpy(bytes_.get() + a, &v, 4);
  }
  void store_i32(DevAddr a, std::int32_t v) {
    store_u32(a, static_cast<std::uint32_t>(v));
  }

  /// Direct read-only view (texture binding, bulk verification).
  const std::uint8_t* raw(DevAddr a, std::size_t bytes) const {
    bounds_check(a, bytes);
    return bytes_.get() + a;
  }

 private:
  void bounds_check(DevAddr a, std::size_t bytes) const {
    ACGPU_CHECK(a + bytes <= capacity_,
                "device memory access [" << a << ", " << a + bytes
                    << ") out of bounds (capacity " << capacity_ << ")");
  }

  struct Free {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<std::uint8_t[], Free> bytes_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;
};

}  // namespace acgpu::gpusim
