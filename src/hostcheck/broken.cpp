#include "hostcheck/broken.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/config.h"
#include "gpusim/device_memory.h"
#include "gpusim/stream.h"
#include "util/error.h"

namespace acgpu::hostcheck {

const char* to_string(BrokenSchedule schedule) {
  switch (schedule) {
    case BrokenSchedule::kSkippedEventWait: return "skipped-event-wait";
    case BrokenSchedule::kWriteDuringD2H: return "write-during-d2h";
    case BrokenSchedule::kLockInversion: return "lock-inversion";
  }
  return "?";
}

const std::vector<BrokenSchedule>& all_broken_schedules() {
  static const std::vector<BrokenSchedule> all = {
      BrokenSchedule::kSkippedEventWait,
      BrokenSchedule::kWriteDuringD2H,
      BrokenSchedule::kLockInversion,
  };
  return all;
}

BrokenSchedule broken_schedule_from_name(std::string_view name) {
  for (const BrokenSchedule s : all_broken_schedules())
    if (name == to_string(s)) return s;
  std::string valid;
  for (const BrokenSchedule s : all_broken_schedules()) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(s);
  }
  ACGPU_CHECK(false, "unknown broken schedule '" << name << "' (valid: "
                                                 << valid << ")");
  return BrokenSchedule::kSkippedEventWait;
}

HazardKind expected_hazard(BrokenSchedule schedule) {
  switch (schedule) {
    case BrokenSchedule::kSkippedEventWait: return HazardKind::kUploadReuse;
    case BrokenSchedule::kWriteDuringD2H: return HazardKind::kWriteDuringD2H;
    case BrokenSchedule::kLockInversion: return HazardKind::kLockOrderCycle;
  }
  return HazardKind::kUnorderedConflict;
}

namespace {

constexpr std::uint64_t kBytes = 256;

/// Shared driver scaffolding: a small simulated device under the recorder.
struct Rig {
  gpusim::GpuConfig config = gpusim::GpuConfig::gtx285();
  gpusim::DeviceMemory mem{1u << 20};
  gpusim::StreamSim sim{config, mem};
  std::vector<std::uint8_t> host = std::vector<std::uint8_t>(kBytes, 0xAB);

  explicit Rig(Recorder& recorder) { sim.set_host_observer(&recorder); }
};

void drive_skipped_event_wait(Recorder& recorder) {
  Rig rig(recorder);
  const gpusim::StreamId s0 = rig.sim.create_stream();
  const gpusim::StreamId s1 = rig.sim.create_stream();
  const gpusim::DevAddr buf = rig.mem.alloc(kBytes);
  rig.sim.memcpy_h2d(s0, buf, rig.host.data(), kBytes, "h2d upload");
  // CORRECT schedule: record_event(s0) here, wait_event(s1, e) before the
  // kernel. Both dropped — the kernel reads the upload by timing luck only.
  const std::uint64_t kid = rig.sim.charge_kernel(s1, 1e-4, "kernel consume");
  rig.sim.annotate(kid, buf, kBytes, /*is_write=*/false);
}

void drive_write_during_d2h(Recorder& recorder) {
  Rig rig(recorder);
  const gpusim::StreamId s0 = rig.sim.create_stream();
  const gpusim::StreamId s1 = rig.sim.create_stream();
  const gpusim::DevAddr buf = rig.mem.alloc(kBytes);
  rig.sim.memcpy_d2h(s0, rig.host.data(), buf, kBytes, "d2h drain");
  // BUG: the overwrite is on another stream with no edge to the drain.
  rig.sim.memcpy_h2d(s1, buf, rig.host.data(), kBytes, "h2d overwrite");
}

void drive_lock_inversion(Recorder& recorder) {
  gpusim::TrackedMutex a("serve.mu");
  gpusim::TrackedMutex b("serve.scheduler.mu");
  a.attach(&recorder);
  b.attach(&recorder);
  // The threads run sequentially (join between them), so this never
  // deadlocks — but the order graph still shows serve.mu ->
  // serve.scheduler.mu -> serve.mu, which a concurrent run could deadlock
  // on. Exactly the latent bug the lock pass exists to surface.
  std::thread t1([&] {
    std::scoped_lock hold(a);
    std::scoped_lock nested(b);
  });
  t1.join();
  std::thread t2([&] {
    std::scoped_lock hold(b);
    std::scoped_lock nested(a);
  });
  t2.join();
}

}  // namespace

HostTrace record_broken_schedule(BrokenSchedule schedule) {
  Recorder recorder;
  switch (schedule) {
    case BrokenSchedule::kSkippedEventWait:
      drive_skipped_event_wait(recorder);
      break;
    case BrokenSchedule::kWriteDuringD2H:
      drive_write_during_d2h(recorder);
      break;
    case BrokenSchedule::kLockInversion: drive_lock_inversion(recorder); break;
  }
  return recorder.trace();
}

HostAuditReport run_broken_schedule(BrokenSchedule schedule,
                                    const AnalyzeOptions& options) {
  return analyze(record_broken_schedule(schedule), options);
}

}  // namespace acgpu::hostcheck
