#include "pipeline/device.h"

#include <atomic>
#include <mutex>

namespace acgpu {
namespace {

/// Process-unique device ids, never reused (see Device::id).
std::atomic<std::uint32_t> g_next_device_id{0};

}  // namespace

struct Device::Impl {
  DeviceOptions options;
  std::uint32_t id = 0;
  std::string name;
  std::unique_ptr<gpusim::DeviceMemory> memory;
  gpusim::TrackedMutex scan_mu;

  /// Guards the health flag (scan_mu stays scan-only so the hostcheck
  /// lock-order graph keeps device.<id>.mu a leaf).
  mutable std::mutex health_mu;
  bool healthy = true;
  std::string fail_reason;

  Impl(DeviceOptions opts, std::uint32_t device_id, std::string device_name)
      : options(std::move(opts)),
        id(device_id),
        name(std::move(device_name)),
        memory(std::make_unique<gpusim::DeviceMemory>(options.memory_bytes)),
        scan_mu(name + ".mu") {
    if (options.host_observer != nullptr) scan_mu.attach(options.host_observer);
  }
};

Device::Device(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Device::Device(Device&&) noexcept = default;
Device& Device::operator=(Device&&) noexcept = default;
Device::~Device() = default;

Result<Device> Device::create(const DeviceOptions& options) {
  if (options.memory_bytes == 0)
    return Status::invalid_argument("Device memory budget must be > 0");
  const std::uint32_t id = g_next_device_id.fetch_add(1, std::memory_order_relaxed);
  std::string name =
      options.name.empty() ? "device." + std::to_string(id) : options.name;
  std::unique_ptr<Impl> impl;
  try {
    impl = std::make_unique<Impl>(options, id, std::move(name));
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }
  return Device(std::move(impl));
}

std::uint32_t Device::id() const { return impl_->id; }
const std::string& Device::name() const { return impl_->name; }
const gpusim::GpuConfig& Device::gpu() const { return impl_->options.gpu; }
std::size_t Device::memory_bytes() const { return impl_->options.memory_bytes; }
gpusim::DeviceMemory& Device::memory() { return *impl_->memory; }
gpusim::HostObserver* Device::host_observer() const {
  return impl_->options.host_observer;
}
gpusim::TrackedMutex& Device::scan_mutex() { return impl_->scan_mu; }

bool Device::healthy() const {
  std::scoped_lock lock(impl_->health_mu);
  return impl_->healthy;
}

void Device::mark_failed(std::string reason) {
  std::scoped_lock lock(impl_->health_mu);
  impl_->healthy = false;
  impl_->fail_reason = reason.empty() ? "marked failed" : std::move(reason);
}

void Device::restore() {
  std::scoped_lock lock(impl_->health_mu);
  impl_->healthy = true;
  impl_->fail_reason.clear();
}

std::string Device::fail_reason() const {
  std::scoped_lock lock(impl_->health_mu);
  return impl_->fail_reason;
}

}  // namespace acgpu
