// The happens-before analyzer: replays a HostTrace into an op DAG and
// reports schedules that are only correct by timing luck.
//
// Ordering model (per sim — a device runs its sims one after another, and
// concurrent sims of different devices share no memory, so sims are never
// compared):
//
//   same-stream FIFO      op n on stream S happens-before op n+1 on S;
//   record -> wait        wait_event(S, e) orders everything the event
//                         captured before the next op on S;
//   engine serialization  deliberately NOT an edge. Two ops that only
//                         happen to serialise on the copy or compute engine
//                         are unordered, which is exactly the class of
//                         timing-luck schedule the auditor exists to catch.
//
// Happens-before is computed with per-op vector clocks over the sim's
// streams. On top of the DAG the analyzer runs two passes:
//
//   conflicts   every pair of annotated device accesses that overlap with
//               >= 1 write must be HB-ordered; unordered pairs classify as
//               upload-reuse (H2D write vs kernel read), write-during-d2h
//               (a D2H op involved), or the generic unordered-conflict;
//   locks       the lock-order graph over TrackedMutex records (edge
//               held -> acquired per thread); any cycle is a latent
//               deadlock, reported with the full mutex-name cycle.
#pragma once

#include <cstddef>

#include "hostcheck/recorder.h"
#include "hostcheck/report.h"

namespace acgpu::hostcheck {

struct AnalyzeOptions {
  std::size_t max_hazards = 64;  ///< exemplar cap (occurrences still count)
};

/// Replays `trace` and returns the findings. Deterministic: the same trace
/// yields the same report.
HostAuditReport analyze(const HostTrace& trace,
                        const AnalyzeOptions& options = {});

}  // namespace acgpu::hostcheck
