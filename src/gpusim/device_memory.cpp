#include "gpusim/device_memory.h"

#include <new>
#include <utility>

namespace acgpu::gpusim {

DeviceMemory::DeviceMemory(std::size_t capacity) : capacity_(capacity) {
  ACGPU_CHECK(capacity > 0, "DeviceMemory: zero capacity");
  // calloc, not a zero-filled vector: fresh pages read as zero without
  // being committed until the simulation writes them.
  bytes_.reset(static_cast<std::uint8_t*>(std::calloc(capacity, 1)));
  if (bytes_ == nullptr) throw std::bad_alloc();
}

DeviceMemory::DeviceMemory(DeviceMemory&& other) noexcept
    : bytes_(std::move(other.bytes_)),
      capacity_(std::exchange(other.capacity_, 0)),
      next_(std::exchange(other.next_, 0)) {}

DeviceMemory& DeviceMemory::operator=(DeviceMemory&& other) noexcept {
  bytes_ = std::move(other.bytes_);
  capacity_ = std::exchange(other.capacity_, 0);
  next_ = std::exchange(other.next_, 0);
  return *this;
}

DevAddr DeviceMemory::alloc(std::size_t bytes, std::size_t align) {
  ACGPU_CHECK(align > 0 && (align & (align - 1)) == 0,
              "DeviceMemory::alloc: alignment " << align << " is not a power of two");
  const std::size_t base = align_up(next_, align);
  ACGPU_CHECK(base + bytes <= capacity_,
              "device out of memory: want " << bytes << "B at offset " << base
                  << ", capacity " << capacity_ << "B");
  next_ = base + bytes;
  return base;
}

void DeviceMemory::copy_in(DevAddr dst, const void* src, std::size_t bytes) {
  bounds_check(dst, bytes);
  std::memcpy(bytes_.get() + dst, src, bytes);
}

void DeviceMemory::copy_out(void* dst, DevAddr src, std::size_t bytes) const {
  bounds_check(src, bytes);
  std::memcpy(dst, bytes_.get() + src, bytes);
}

void DeviceMemory::fill(DevAddr dst, std::uint8_t value, std::size_t bytes) {
  bounds_check(dst, bytes);
  std::memset(bytes_.get() + dst, value, bytes);
}

}  // namespace acgpu::gpusim
