// Deliberately-broken host schedules — the auditor's negative controls.
//
// Each driver builds a real StreamSim (or real tracked mutexes) under the
// Recorder and reproduces one canonical orchestration bug: the event wait a
// refactor dropped, the readback racing an overwrite, the AB/BA lock
// inversion. The audit CLI and the WILL_FAIL tests then assert the analyzer
// flags each schedule with exactly the expected hazard kind — if a future
// analyzer change stops catching one of these, CI fails before the
// regression ships.
//
// (gpucheck has the same pattern one layer down: deliberately-broken
// kernels that its recorder must flag.)
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "hostcheck/analyze.h"
#include "hostcheck/recorder.h"

namespace acgpu::hostcheck {

enum class BrokenSchedule : std::uint8_t {
  /// Producer H2D on stream 0, consumer kernel on stream 1, with the
  /// record_event/wait_event handshake dropped.
  kSkippedEventWait,
  /// A D2H drains a range while an unordered H2D on another stream
  /// overwrites it.
  kWriteDuringD2H,
  /// Two threads acquire two service locks in opposite orders (run
  /// sequentially — the order graph shows the cycle without the deadlock).
  kLockInversion,
};

const char* to_string(BrokenSchedule schedule);
const std::vector<BrokenSchedule>& all_broken_schedules();
/// Resolves a schedule by its to_string name; throws acgpu::Error on an
/// unknown name (the message lists the valid ones).
BrokenSchedule broken_schedule_from_name(std::string_view name);

/// The hazard kind the analyzer MUST report for the schedule (other kinds
/// may fire alongside — a broken schedule can trip several detectors).
HazardKind expected_hazard(BrokenSchedule schedule);

/// Drives the broken schedule under a fresh Recorder and returns the trace.
HostTrace record_broken_schedule(BrokenSchedule schedule);

/// record + analyze in one step.
HostAuditReport run_broken_schedule(BrokenSchedule schedule,
                                    const AnalyzeOptions& options = {});

}  // namespace acgpu::hostcheck
