// FlightRecorder — the always-on black box for the serving fleet.
//
// Metrics aggregate away the story and traces are too heavy to leave on in
// production; the flight recorder sits between them: every thread appends
// compact 32-byte binary events (admission, batch issue/retire, shard
// failure, health transition) into its own fixed-size ring buffer,
// overwriting the oldest — so at any moment the recorder holds the fleet's
// last moments at a cost of four relaxed atomic stores per event. When
// something dies (Router::mark_failed) or someone asks
// (write_postmortem()), the rings are merged, time-sorted, and
// serialized to a postmortem JSON joined with a metrics snapshot: evidence
// of what every thread was doing in the window before the failure.
//
// Concurrency: each ring is written by exactly one thread (thread-local
// slot assignment, like Tracer's track assignment); writes are lock-free —
// a slot is four relaxed atomic u64 stores plus one release store of the
// ring head. Readers (dump) take no writer-visible lock; an event being
// overwritten concurrently with a dump may read torn and is discarded by
// the head re-check. The registration mutex is taken once per thread.
//
// A null FlightRecorder* everywhere means recording is off and costs one
// branch — the "exactly zero when TelemetryOptions is null" half of the CI
// overhead gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace acgpu::telemetry {

class MetricsSnapshot;

enum class FlightEventKind : std::uint8_t {
  kAdmission = 0,      ///< feed accepted       a=session id, b=chunk bytes
  kReject = 1,         ///< feed rejected       a=session id, code=StatusCode
  kEviction = 2,       ///< LRU session evicted a=session id
  kBatchIssue = 3,     ///< pipeline batch H2D  a=batch index, b=staged bytes
  kBatchRetire = 4,    ///< pipeline batch D2H  a=batch index, b=output bytes
  kShardFailure = 5,   ///< device marked failed
  kShardRestore = 6,   ///< device restored
  kHealthTransition = 7,  ///< a=from HealthState, b=to HealthState
  kMark = 8,           ///< caller-defined marker (tests, tools)
};

const char* to_string(FlightEventKind kind);

/// One decoded event (the dump-side view; the rings store packed words).
struct FlightEvent {
  std::uint64_t t_ns = 0;   ///< wall clock (acgpu::now_ns)
  FlightEventKind kind{};
  std::uint32_t shard = 0;  ///< owning shard / device index (0 standalone)
  std::uint32_t code = 0;   ///< kind-specific discriminator
  std::uint64_t a = 0;      ///< kind-specific payload
  std::uint64_t b = 0;
  std::uint32_t thread = 0; ///< recorder slot of the writing thread
};

struct FlightRecorderOptions {
  /// Events retained per thread; rounded up to a power of two. 4096 events
  /// x 32 bytes = 128 KiB per thread.
  std::uint32_t ring_capacity = 1u << 12;
  /// Rings available; threads beyond this drop events (counted).
  std::uint32_t max_threads = 64;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  /// Lock-free append (after the calling thread's first event, which
  /// registers its ring under the mutex).
  void record(FlightEventKind kind, std::uint32_t shard = 0, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint32_t code = 0);

  /// Total events ever recorded / dropped for want of a ring.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Merged, time-sorted copy of every ring's retained events, filtered to
  /// the last `window_ns` (0 = every retained event).
  std::vector<FlightEvent> events(std::uint64_t window_ns = 0) const;

  /// Serializes events(window_ns) + `reason` + an optional metrics snapshot
  /// as the postmortem JSON (schema: docs/OBSERVABILITY.md). Safe to call
  /// while other threads keep recording.
  void write_postmortem(std::ostream& out, std::string_view reason,
                        const MetricsSnapshot* metrics = nullptr,
                        std::uint64_t window_ns = 0) const;

  const FlightRecorderOptions& options() const { return options_; }

 private:
  /// Ring slots are four relaxed-atomic words so concurrent dump reads are
  /// race-free (possibly torn across words — the head re-check discards
  /// slots overwritten mid-copy).
  struct Slot {
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> meta{0};  ///< kind | shard<<8 | code<<32
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };
  struct Ring {
    std::atomic<std::uint64_t> head{0};  ///< total writes; slot = head & mask
    std::unique_ptr<Slot[]> slots;
  };

  Ring* thread_ring();

  FlightRecorderOptions options_;
  std::uint32_t mask_ = 0;  ///< ring_capacity - 1 (capacity forced to 2^n)
  std::uint64_t serial_ = 0;  ///< keys thread-local ring cache, unique per recorder
  mutable std::mutex mu_;     ///< ring registration only
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace acgpu::telemetry
