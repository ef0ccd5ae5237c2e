// StreamService — the streaming session service over acgpu::Engine.
//
// The Engine (pipeline/engine.h) answers "scan this resident text"; the
// service answers the ROADMAP's production question: many concurrent
// traffic streams, each arriving chunk by chunk, with patterns spanning
// arbitrarily many chunk boundaries. It owns
//
//   Session         carried boundary state per stream (serve/session.h)
//   SessionManager  bounded live-session set with LRU eviction
//   Scheduler       bounded queue + superbatch coalescer + partitioner
//
// and one Engine, on a Device the service creates from ServeOptions::device,
// that bulk-scans coalesced superbatches (engine() lends it out for the
// caller's own bulk scans, so a device holds one upload).
//
//   auto service = serve::StreamService::create(patterns, options);
//   auto id = service.value().open();
//   service.value().feed(id.value(), chunk);     // any chunking, any order
//   ...
//   service.value().drain();
//   auto matches = service.value().poll(id.value());   // global offsets
//
// Contracts (docs/SERVING.md spells them out):
//
//  - Exactly-once: across every chunking of a stream, poll() accumulates
//    exactly the matches Engine::scan would report on the concatenated
//    stream (compare after ac::normalize_matches). Enforced as the 15th
//    conformance matcher ("serve") and by the fuzzed-chunking tests.
//  - Backpressure: feed() returns Status with code kOverloaded when the
//    bounded queue is full — the service never buffers unboundedly. With
//    AdmissionPolicy::kAutoFlush (synchronous default) the service instead
//    scans inline, so feed() only blocks, never rejects.
//  - Eviction: open() beyond max_sessions evicts the LRU session; its
//    carried state, queued chunks, and unpolled matches are dropped.
//  - Drain/shutdown: drain() returns once every accepted chunk has been
//    scanned and delivered; shutdown() drains, stops accepting, and joins
//    the worker. The destructor shuts down.
//
// Threading: every public method is safe to call from any thread. With
// background=true a single worker thread consumes the queue (feed never
// scans); otherwise scans run inline on the calling thread, serialized by
// the service mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "pipeline/engine.h"
#include "serve/scheduler.h"
#include "serve/session.h"
#include "serve/session_manager.h"
#include "util/error.h"

namespace acgpu::serve {

/// What feed() does when the bounded queue cannot take the chunk.
enum class AdmissionPolicy : std::uint8_t {
  /// Resolved at create(): kReject when background, kAutoFlush otherwise.
  kDefault,
  /// Scan inline to make room, then accept. Synchronous mode only: feed()
  /// may block on an Engine scan but never returns kOverloaded.
  kAutoFlush,
  /// Return kOverloaded; the caller retries after pump() (synchronous) or
  /// after the worker catches up (background).
  kReject,
};

const char* to_string(AdmissionPolicy policy);

struct ServeOptions {
  /// The bulk-scan engine; its DFA is the one every session walks across
  /// chunk boundaries, whatever the engine's options. Its telemetry sinks are
  /// the service's too: the serve.* series go to engine.telemetry.metrics
  /// under its metrics_prefix, serve.superbatch spans to its tracer (so
  /// engine.scan nests under them), and admission/reject/eviction events to
  /// its recorder, stamped with its shard.
  EngineOptions engine;

  /// The device the service creates and owns for its engine. Its
  /// host_observer is the hostcheck audit hook: the service mutex, the
  /// scheduler/session-manager leaf mutexes and every Engine scan report
  /// their lock and stream activity to it. Null = off, zero cost.
  DeviceOptions device;

  /// Adaptive backend routing (dispatch/dispatcher.h): when set, every
  /// coalesced superbatch is routed by the cost model — tiny batches run
  /// on the host DFA (serial or parallel) instead of paying the device's
  /// per-scan overhead, large ones still take the engine, and every
  /// executed decision refines the model. The dispatcher is shareable and
  /// thread-safe (the cluster tier points every shard at one); it must
  /// outlive the service. Null = classic always-engine scanning.
  dispatch::Dispatcher* dispatcher = nullptr;

  /// Offset for generated session ids (ids are namespace+1, namespace+2,
  /// ...). 0 keeps the classic deterministic 1,2,3 sequence; the cluster
  /// tier gives each shard a disjoint high-bits namespace so ids stay
  /// globally unique — and deterministic — across devices.
  std::uint64_t session_id_namespace = 0;

  /// Live-session cap (LRU eviction beyond it).
  std::uint32_t max_sessions = 1024;
  /// Quotas stamped onto every session at open().
  SessionLimits session_limits;

  /// Bounded-queue admission control and superbatch coalescing.
  SchedulerOptions queue;

  /// true: a worker thread consumes the queue; feed() never scans.
  bool background = false;
  AdmissionPolicy admission = AdmissionPolicy::kDefault;

  Status validate() const;
};

/// Point-in-time service counters (also published as serve.* metrics).
struct ServiceStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_live = 0;
  std::uint64_t feeds_accepted = 0;
  std::uint64_t feeds_rejected = 0;   ///< kOverloaded answers
  std::uint64_t quota_rejects = 0;    ///< kCapacityExceeded answers
  std::uint64_t bytes_accepted = 0;
  std::uint64_t batches = 0;          ///< superbatches scanned
  std::uint64_t host_fallbacks = 0;   ///< overflow/engine-failure rescans
  std::uint64_t matches_delivered = 0;
  std::uint64_t spanning_matches = 0;
  std::uint64_t matches_dropped_closed = 0;  ///< delivery after close/evict
  std::uint64_t queued_chunks = 0;
  std::uint64_t queued_bytes = 0;
  std::uint64_t max_queue_depth_chunks = 0;
  std::uint64_t drains = 0;
  std::uint64_t sessions_exported = 0;  ///< migrated out (cluster rebalance)
  std::uint64_t sessions_imported = 0;  ///< migrated in
  /// Simulated device seconds across every superbatch scan — the shard's
  /// share of cluster device time (host fallbacks contribute nothing).
  double sim_scan_seconds = 0;
};

class StreamService {
 public:
  /// Compiles `patterns` (CompiledPatterns::compile), then stands the
  /// service up on the result as the overload below does.
  static Result<StreamService> create(const ac::PatternSet& patterns,
                                      const ServeOptions& options = {});
  /// Stands the service up on an already compiled automaton: its Engine
  /// uploads `compiled` to the device, and its sessions carry state over
  /// the same shared host objects. The cluster Router compiles once and
  /// hands the result to every shard. Fails (no throw) on invalid options,
  /// or when Device::create or Engine::create fails (kCapacityExceeded when
  /// the automaton does not fit the device).
  static Result<StreamService> create(const CompiledPatterns& compiled,
                                      const ServeOptions& options = {});

  StreamService(StreamService&&) noexcept;
  StreamService& operator=(StreamService&&) noexcept;
  ~StreamService();  ///< shutdown()

  /// Opens a session (may evict the LRU one). Fails after shutdown().
  Result<SessionId> open();

  /// Feeds the next chunk of `id`'s stream. Empty chunks are accepted
  /// no-ops. Failure codes: kInvalidArgument (unknown/closed/evicted id, or
  /// after shutdown), kCapacityExceeded (session byte quota), kOverloaded
  /// (bounded queue full under AdmissionPolicy::kReject — retry later).
  /// `trace` (optional) is the request's causal identity, minted upstream
  /// (cluster::Router) — it rides the queue into the superbatch span.
  Status feed(SessionId id, std::string_view chunk,
              telemetry::TraceContext trace = {});

  /// Takes the matches delivered so far (global byte offsets, discovery
  /// order — normalize before comparing with a batch scan). drain() first
  /// for a complete answer.
  Result<std::vector<ac::Match>> poll(SessionId id);

  /// Per-session counters (buffered + polled).
  Result<SessionStats> session_stats(SessionId id) const;

  /// Destroys the session and forgets its queued chunks.
  Status close(SessionId id);

  /// Migration out: snapshots the session's portable state (carried
  /// automaton context, stats, unpolled matches) and closes it here. Fails
  /// kOverloaded while the session still has queued or in-flight chunks —
  /// drain() first, or the snapshot would lose their matches. The cluster
  /// Router drives this during rebalance; see docs/CLUSTER.md.
  Result<SessionSnapshot> export_session(SessionId id);

  /// Migration in: restores an exported session under its ORIGINAL id (may
  /// LRU-evict, like open). Fails kInvalidArgument when the id is already
  /// live here, the snapshot's DFA state is not one of this service's DFA
  /// states (0 <= dfa_state < dfa().state_count()), a buffered match names a
  /// pattern outside [0, dfa().pattern_count()) or does not lie inside the
  /// stream's first stats.bytes_fed bytes, its limits and stats are ones no
  /// session can reach (SessionSnapshot lists them), or the service is shut
  /// down.
  Status import_session(const SessionSnapshot& snapshot);

  /// Synchronous mode: scan one coalesced superbatch inline (how kReject
  /// callers make room). No-op when the queue is empty; invalid in
  /// background mode (the worker owns the engine there).
  Status pump();

  /// Blocks until every accepted chunk has been scanned and delivered.
  Status drain();

  /// drain(), stop accepting opens/feeds, join the worker. Idempotent.
  void shutdown();

  ServiceStats stats() const;
  const ServeOptions& options() const;
  const ac::Dfa& dfa() const;
  /// The service's only Engine. Engine::scan serializes on the device's scan
  /// mutex, so a caller may run its own scans through it from any thread,
  /// beside the superbatches (the cluster Router serves bulk scans here).
  Engine& engine();

 private:
  struct Impl;
  explicit StreamService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace acgpu::serve
