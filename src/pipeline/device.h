// acgpu::Device — explicit ownership of one simulated GPU.
//
// Before the cluster tier, Engine::create built a private DeviceMemory and
// the process was implicitly single-device. Device splits that out: it owns
// the simulated device's identity (a process-unique id), its memory arena,
// the HostObserver seam, and a scan mutex that serializes the engines
// sharing it — one process, many devices, many engines:
//
//   Device (identity, DeviceMemory arena, observer seam, scan mutex)
//     ├── Engine A  (automaton + pipeline bound to Device&)
//     └── Engine B  (another automaton on the same device)
//
//   auto device = acgpu::Device::create();
//   auto engine = acgpu::Engine::create(device.value(), patterns);
//
// Engines bound to the same Device serialize their scans on the device's
// scan mutex ("device.<id>.mu" in hostcheck traces): each MatchPipeline run
// marks/releases a per-run region of the shared arena, so two runs may not
// interleave on one device. Engines on DIFFERENT devices are fully
// independent and scan concurrently — that is the property the cluster tier
// scales on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gpusim/config.h"
#include "gpusim/device_memory.h"
#include "gpusim/host_observer.h"
#include "util/error.h"

namespace acgpu {

struct DeviceOptions {
  /// Simulated chip model and its memory budget: the only place either is
  /// set (ServeOptions::device and ClusterOptions::device are these too).
  gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  std::size_t memory_bytes = 256u << 20;

  /// Hostcheck audit hook (gpusim/host_observer.h): the device's scan mutex
  /// registers here, and every engine bound to the device records its
  /// stream activity here. The only place an Engine's observer is set.
  /// Null = off, zero cost.
  gpusim::HostObserver* host_observer = nullptr;

  /// Telemetry/trace label; "" derives "device.<id>" from the global id.
  std::string name;
};

class Device {
 public:
  /// Stands a simulated device up: allocates a process-unique id and the
  /// memory arena. Fails (no throw) on a zero memory budget or arena
  /// construction failure.
  static Result<Device> create(const DeviceOptions& options = {});

  Device(Device&&) noexcept;
  Device& operator=(Device&&) noexcept;
  ~Device();

  /// Process-unique id, counted from 0 and never reused, so traces and
  /// metric series from different devices never collide.
  std::uint32_t id() const;
  /// "device.<id>" unless DeviceOptions::name overrode it. Used as the
  /// metric prefix root and the Chrome-trace process name.
  const std::string& name() const;

  const gpusim::GpuConfig& gpu() const;
  std::size_t memory_bytes() const;
  gpusim::DeviceMemory& memory();
  gpusim::HostObserver* host_observer() const;

  /// Serializes scans of the engines sharing this device (they share one
  /// arena and mark/release per-run regions). Engine::scan acquires it;
  /// harness code that touches memory() directly should too.
  gpusim::TrackedMutex& scan_mutex();

  /// Fail-stop health flag for the cluster tier: a failed device refuses
  /// new scans (Engine::scan answers StatusCode::kUnavailable via
  /// Status::unavailable) until restore(). Flipping the flag never interrupts
  /// a scan in progress — the failure model is fail-stop-with-drain
  /// (docs/CLUSTER.md).
  bool healthy() const;
  void mark_failed(std::string reason);
  void restore();
  /// Last mark_failed reason; empty while healthy.
  std::string fail_reason() const;

 private:
  struct Impl;
  explicit Device(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace acgpu
