// Admission-controlled chunk queue + superbatch coalescer for the session
// service.
//
// Feeding one Engine::scan per arriving chunk would waste the batched
// pipeline: most chunks are packet-sized, and the pipeline's copy/compute
// overlap only pays off on large inputs. The scheduler instead parks
// accepted chunks in a bounded queue and coalesces many sessions' pending
// chunks into one contiguous superbatch per scan. Correctness of the
// concatenation relies on the partition filter in scan_batch(): a match is
// credited to the chunk containing its END byte and kept only when its
// START lies in the same chunk, so
//
//  - matches fabricated across a joint between two different sessions'
//    chunks are discarded, and
//  - a genuine cross-chunk match of one session is also discarded here —
//    the session's boundary continuation (serve/session.h) already reported
//    it at feed time — keeping every match exactly-once.
//
// Admission is a hard bound on queued chunks and bytes: when the queue is
// full the scheduler answers Status::kOverloaded (backpressure) instead of
// growing without bound. A single chunk larger than the whole byte budget
// is admitted only when the queue is empty, so it can never deadlock the
// producer that must drain it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"
#include "gpusim/host_observer.h"
#include "pipeline/engine.h"
#include "serve/session.h"
#include "telemetry/trace_context.h"
#include "util/error.h"

namespace acgpu::dispatch {
class Dispatcher;
}  // namespace acgpu::dispatch

namespace acgpu::serve {

/// One accepted chunk awaiting a bulk scan. Bytes are owned: the caller's
/// buffer is free to die the moment feed() returns.
struct PendingChunk {
  SessionId session = 0;
  std::uint64_t global_base = 0;  ///< stream offset of bytes[0]
  std::string bytes;
  /// Causal identity minted at the router (invalid = untraced); rides the
  /// queue so the superbatch span can link back to every member request.
  telemetry::TraceContext trace;
};

/// Bounded-queue admission control and coalescing: the only declaration of
/// these settings (ServeOptions::queue and ClusterOptions::queue hold one).
struct SchedulerOptions {
  std::uint64_t max_queue_bytes = 32u << 20;
  std::uint32_t max_queue_chunks = 4096;
  /// Target superbatch size: take_batch() pops whole chunks until adding
  /// the next one would exceed this (always at least one chunk).
  std::uint64_t coalesce_bytes = 4u << 20;

  Status validate() const;
};

/// Where each coalesced chunk landed in the superbatch text.
struct ChunkSpan {
  SessionId session = 0;
  std::uint64_t begin = 0;        ///< offset in the superbatch
  std::uint64_t end = 0;          ///< one past the chunk's last byte
  std::uint64_t global_base = 0;  ///< stream offset of the chunk's byte 0
  telemetry::TraceContext trace;  ///< carried over from the PendingChunk
};

struct CoalescedBatch {
  std::string text;               ///< concatenated chunk bytes
  std::vector<ChunkSpan> spans;   ///< ascending, contiguous, non-empty
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options);

  /// Can the queue take `bytes` more right now? kOverloaded when not.
  Status admission(std::uint64_t bytes) const;

  /// Enqueues after an admission() re-check; empty chunks are accepted and
  /// dropped (nothing to scan — the session bookkeeping already happened).
  Status admit(PendingChunk chunk);

  bool has_work() const { return !queue_.empty(); }
  std::uint64_t queued_bytes() const { return queued_bytes_; }
  std::uint32_t queued_chunks() const { return static_cast<std::uint32_t>(queue_.size()); }

  /// Pops the oldest chunks into one superbatch (FIFO across sessions, so a
  /// session's own chunks stay in feed order). Requires has_work().
  CoalescedBatch take_batch();

  /// Drops every queued chunk of `session` (closed or evicted), freeing its
  /// queue space. Returns the number of chunks dropped.
  std::size_t forget(SessionId session);

  /// Queued chunks belonging to `session` — export_session's precondition
  /// check (a session may only migrate once nothing of it is in the queue).
  std::size_t queued_for(SessionId session) const;

  const SchedulerOptions& options() const { return options_; }

  /// Hands the internal queue mutex to the hostcheck auditor
  /// (gpusim/host_observer.h). The mutex is a LEAF by design — the
  /// scheduler never calls out while holding it — so every recorded edge
  /// points INTO it (serve.mu -> serve.scheduler.mu) and the lock-order
  /// graph stays acyclic. Call before the scheduler is shared.
  void attach_observer(gpusim::HostObserver* observer) { mu_.attach(observer); }

 private:
  Status admission_locked(std::uint64_t bytes) const;

  SchedulerOptions options_;
  /// Leaf mutex over the queue mutators. The service mutex already
  /// serializes every caller; this one exists so hostcheck observes the
  /// real serve.mu -> scheduler.mu nesting (and guards the mutators if a
  /// future driver ever reaches the scheduler directly).
  mutable gpusim::TrackedMutex mu_{"serve.scheduler.mu"};
  std::deque<PendingChunk> queue_;
  std::uint64_t queued_bytes_ = 0;
};

/// Result of scanning one superbatch: per-session matches with global
/// offsets, ready for Session::deliver.
struct BatchScan {
  struct Delivery {
    SessionId session = 0;
    ac::Match match;
  };
  std::vector<Delivery> matches;
  bool host_fallback = false;  ///< device buffer overflowed / engine failed
  /// Simulated device seconds the batch's scan took (0 on the host-fallback
  /// path — the device never ran it to completion). The cluster throughput
  /// accounting sums these per shard.
  double makespan_seconds = 0;
};

/// Scans a coalesced superbatch through the engine and partitions the
/// matches back onto sessions with the start-in-same-chunk filter. When the
/// device match buffer overflows (or the engine reports any error), the
/// batch is re-scanned exactly on the host DFA — serving degrades to host
/// speed instead of dropping matches.
BatchScan scan_batch(Engine& engine, const ac::Dfa& dfa,
                     const CoalescedBatch& batch);

/// Dispatcher-aware variant (ServeOptions::dispatcher): consults the cost
/// model per superbatch and runs the chosen backend — the host DFA paths
/// (serial or the chunked parallel scan) execute exactly and report their
/// modeled CPU seconds as the batch makespan, the GPU decision takes the
/// engine path above (with its overflow fallback). Every executed decision
/// is fed back through Dispatcher::observe. Null dispatcher = the classic
/// always-engine behavior, bit-identical counters included.
BatchScan scan_batch(Engine& engine, const ac::Dfa& dfa,
                     const CoalescedBatch& batch,
                     dispatch::Dispatcher* dispatcher);

}  // namespace acgpu::serve
