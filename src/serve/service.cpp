#include "serve/service.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "telemetry/flight_recorder.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace acgpu::serve {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDefault: return "default";
    case AdmissionPolicy::kAutoFlush: return "auto-flush";
    case AdmissionPolicy::kReject: return "reject";
  }
  return "?";
}

Status ServeOptions::validate() const {
  if (max_sessions == 0)
    return Status::invalid_argument("max_sessions must be >= 1");
  if (Status s = queue.validate(); !s) return s;
  if (background && admission == AdmissionPolicy::kAutoFlush)
    return Status::invalid_argument(
        "AdmissionPolicy::kAutoFlush is synchronous-only; background mode "
        "must reject (the worker owns the engine)");
  return Status::ok();
}

namespace {

/// serve.* series handles, resolved once (registry references are stable).
struct MetricHandles {
  telemetry::Counter* opened = nullptr;
  telemetry::Counter* closed = nullptr;
  telemetry::Counter* evicted = nullptr;
  telemetry::Counter* feeds_accepted = nullptr;
  telemetry::Counter* feeds_rejected = nullptr;
  telemetry::Counter* quota_rejects = nullptr;
  telemetry::Counter* feed_bytes = nullptr;
  telemetry::Counter* batches = nullptr;
  telemetry::Counter* host_fallbacks = nullptr;
  telemetry::Counter* matches_delivered = nullptr;
  telemetry::Counter* matches_spanning = nullptr;
  telemetry::Counter* matches_dropped_quota = nullptr;
  telemetry::Counter* matches_dropped_closed = nullptr;
  telemetry::Counter* drains = nullptr;
  telemetry::Gauge* live = nullptr;
  telemetry::Gauge* queue_depth_chunks = nullptr;
  telemetry::Gauge* queue_depth_bytes = nullptr;
  telemetry::Gauge* queue_max_depth = nullptr;
  telemetry::Histogram* feed_latency = nullptr;
  telemetry::Histogram* batch_bytes = nullptr;
  telemetry::Histogram* batch_chunks = nullptr;
  telemetry::Histogram* batch_scan_ns = nullptr;

  telemetry::Counter* exported = nullptr;
  telemetry::Counter* imported = nullptr;

  void resolve(telemetry::MetricsRegistry& reg, const std::string& prefix) {
    const auto name = [&](const char* series) { return prefix + series; };
    opened = &reg.counter(name("serve.sessions.opened"));
    closed = &reg.counter(name("serve.sessions.closed"));
    evicted = &reg.counter(name("serve.sessions.evicted"));
    exported = &reg.counter(name("serve.sessions.exported"));
    imported = &reg.counter(name("serve.sessions.imported"));
    feeds_accepted = &reg.counter(name("serve.feeds.accepted"));
    feeds_rejected = &reg.counter(name("serve.feeds.rejected"));
    quota_rejects = &reg.counter(name("serve.feeds.quota_rejected"));
    feed_bytes = &reg.counter(name("serve.feed.bytes"));
    batches = &reg.counter(name("serve.batches"));
    host_fallbacks = &reg.counter(name("serve.scan.host_fallbacks"));
    matches_delivered = &reg.counter(name("serve.matches.delivered"));
    matches_spanning = &reg.counter(name("serve.matches.spanning"));
    matches_dropped_quota = &reg.counter(name("serve.matches.dropped_quota"));
    matches_dropped_closed = &reg.counter(name("serve.matches.dropped_closed"));
    drains = &reg.counter(name("serve.drains"));
    live = &reg.gauge(name("serve.sessions.live"));
    queue_depth_chunks = &reg.gauge(name("serve.queue.depth_chunks"));
    queue_depth_bytes = &reg.gauge(name("serve.queue.depth_bytes"));
    queue_max_depth = &reg.gauge(name("serve.queue.max_depth_chunks"));
    feed_latency = &reg.histogram(name("serve.feed.latency_ns"));
    batch_bytes = &reg.histogram(name("serve.batch.bytes"));
    batch_chunks = &reg.histogram(name("serve.batch.chunks"));
    batch_scan_ns = &reg.histogram(name("serve.batch.scan_ns"));
  }
};

}  // namespace

struct StreamService::Impl {
  ServeOptions options;
  /// Built from ServeOptions::device. Declared before `engine` so the
  /// engine is destroyed first.
  std::unique_ptr<Device> device;
  /// Sessions walk the engine's shared host DFA.
  Engine engine;

  /// TrackedMutex so hostcheck can audit lock order; with no observer
  /// attached it is one branch over a plain mutex. The condition variables
  /// are _any so they drive the wrapper unchanged.
  mutable gpusim::TrackedMutex mu{"serve.mu"};
  std::condition_variable_any cv_work;  ///< worker: queue gained work / stopping
  std::condition_variable_any cv_idle;  ///< drain(): queue empty and not in flight
  SessionManager manager;
  Scheduler scheduler;
  ServiceStats stats;
  MetricHandles m;
  bool has_metrics = false;

  bool accepting = true;   ///< false after shutdown() begins
  bool stopping = false;   ///< worker exit signal
  bool in_flight = false;  ///< a batch is being scanned right now
  std::thread worker;

  Impl(ServeOptions opts, std::unique_ptr<Device> dev, Engine eng)
      : options(std::move(opts)),
        device(std::move(dev)),
        engine(std::move(eng)),
        manager(options.max_sessions, options.session_id_namespace),
        scheduler(options.queue) {
    if (options.admission == AdmissionPolicy::kDefault)
      options.admission = options.background ? AdmissionPolicy::kReject
                                             : AdmissionPolicy::kAutoFlush;
    if (gpusim::HostObserver* observer = device->host_observer()) {
      // Attach before the worker exists: TrackedMutex::attach is not safe
      // against a concurrent lock().
      mu.attach(observer);
      manager.attach_observer(observer);
      scheduler.attach_observer(observer);
    }
    if (telemetry().metrics != nullptr) {
      m.resolve(*telemetry().metrics, telemetry().metrics_prefix);
      has_metrics = true;
    }
    if (options.background) worker = std::thread([this] { worker_loop(); });
  }

  ~Impl() { shutdown(); }

  /// The engine's sinks, which the service publishes through too.
  const pipeline::TelemetryOptions& telemetry() const {
    return options.engine.telemetry;
  }

  void record(telemetry::FlightEventKind kind, std::uint64_t a,
              std::uint64_t b = 0, std::uint32_t code = 0) const {
    if (telemetry().recorder != nullptr)
      telemetry().recorder->record(kind, telemetry().shard, a, b, code);
  }

  void publish_queue_locked() {
    stats.queued_chunks = scheduler.queued_chunks();
    stats.queued_bytes = scheduler.queued_bytes();
    stats.max_queue_depth_chunks =
        std::max<std::uint64_t>(stats.max_queue_depth_chunks, stats.queued_chunks);
    if (!has_metrics) return;
    m.queue_depth_chunks->set(static_cast<double>(stats.queued_chunks));
    m.queue_depth_bytes->set(static_cast<double>(stats.queued_bytes));
    m.queue_max_depth->set_max(static_cast<double>(stats.queued_chunks));
  }

  /// Scans `batch` and delivers its matches. Caller holds `lk` (locked);
  /// in background mode the lock is dropped around the engine scan so
  /// feeds/polls proceed while the device is busy.
  void scan_and_dispatch(std::unique_lock<gpusim::TrackedMutex>& lk, CoalescedBatch batch) {
    in_flight = true;
    publish_queue_locked();
    const std::uint64_t batch_len = batch.text.size();
    const std::size_t chunk_count = batch.spans.size();

    // The superbatch span opens on the scanning thread (the worker in
    // background mode) so the engine.scan -> pipeline.run -> kernel.simulate
    // spans nest under it. A superbatch coalesces many requests, so the span
    // carries the LIST of member trace ids — the cross-batch links that let
    // one Perfetto search join a request's router.feed to the batch that
    // served it.
    telemetry::Span superbatch(telemetry().tracer, "serve.superbatch");
    if (telemetry().tracer != nullptr) {
      std::vector<std::uint64_t> ids;
      std::vector<SessionId> sessions;
      for (const ChunkSpan& cs : batch.spans) {
        if (cs.trace.valid()) ids.push_back(cs.trace.trace_id);
        sessions.push_back(cs.session);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      std::sort(sessions.begin(), sessions.end());
      sessions.erase(std::unique(sessions.begin(), sessions.end()),
                     sessions.end());
      std::string joined;
      for (std::uint64_t tid : ids) {
        if (!joined.empty()) joined += ",";
        joined += telemetry::trace_id_string(tid);
      }
      superbatch.annotate("trace_ids", joined);
      superbatch.annotate("sessions", std::to_string(sessions.size()));
      superbatch.annotate("chunks", std::to_string(chunk_count));
      superbatch.annotate("bytes", std::to_string(batch_len));
    }

    BatchScan scan;
    Stopwatch clock;
    if (options.background) {
      lk.unlock();
      scan = scan_batch(engine, engine.dfa(), batch, options.dispatcher);
      lk.lock();
    } else {
      scan = scan_batch(engine, engine.dfa(), batch, options.dispatcher);
    }
    const std::uint64_t scan_ns = clock.nanos();

    ++stats.batches;
    stats.sim_scan_seconds += scan.makespan_seconds;
    if (scan.host_fallback) ++stats.host_fallbacks;
    std::uint64_t delivered = 0, dropped_quota = 0, dropped_closed = 0;
    for (const BatchScan::Delivery& d : scan.matches) {
      Session* s = manager.find(d.session);
      if (s == nullptr) {
        ++dropped_closed;  // closed or evicted while the batch was queued
        continue;
      }
      if (s->deliver(d.match))
        ++delivered;
      else
        ++dropped_quota;
    }
    stats.matches_delivered += delivered;
    stats.matches_dropped_closed += dropped_closed;
    in_flight = false;
    publish_queue_locked();
    if (has_metrics) {
      m.batches->add(1);
      if (scan.host_fallback) m.host_fallbacks->add(1);
      m.matches_delivered->add(delivered);
      if (dropped_quota > 0) m.matches_dropped_quota->add(dropped_quota);
      if (dropped_closed > 0) m.matches_dropped_closed->add(dropped_closed);
      m.batch_bytes->observe(static_cast<double>(batch_len));
      m.batch_chunks->observe(static_cast<double>(chunk_count));
      m.batch_scan_ns->observe(static_cast<double>(scan_ns));
    }
    cv_idle.notify_all();
  }

  /// Synchronous flush of one superbatch. Caller holds `lk`.
  void flush_one_locked(std::unique_lock<gpusim::TrackedMutex>& lk) {
    if (!scheduler.has_work()) return;
    scan_and_dispatch(lk, scheduler.take_batch());
  }

  void worker_loop() {
    std::unique_lock<gpusim::TrackedMutex> lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] { return stopping || scheduler.has_work(); });
      if (!scheduler.has_work()) {
        if (stopping) return;
        continue;
      }
      scan_and_dispatch(lk, scheduler.take_batch());
    }
  }

  void shutdown() {
    {
      std::unique_lock<gpusim::TrackedMutex> lk(mu);
      if (!accepting && !worker.joinable()) return;  // already shut down
      accepting = false;
      if (!options.background)
        while (scheduler.has_work()) flush_one_locked(lk);
      stopping = true;
    }
    cv_work.notify_all();
    if (worker.joinable()) worker.join();  // worker drains the queue first
  }
};

StreamService::StreamService(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
StreamService::StreamService(StreamService&&) noexcept = default;

StreamService& StreamService::operator=(StreamService&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

StreamService::~StreamService() {
  if (impl_) impl_->shutdown();
}

Result<StreamService> StreamService::create(const ac::PatternSet& patterns,
                                            const ServeOptions& options) {
  Result<CompiledPatterns> compiled = CompiledPatterns::compile(patterns);
  if (!compiled.is_ok()) return compiled.status();
  return create(compiled.value(), options);
}

Result<StreamService> StreamService::create(const CompiledPatterns& compiled,
                                            const ServeOptions& options) {
  if (Status s = options.validate(); !s) return s;
  Result<Device> device = Device::create(options.device);
  if (!device.is_ok()) return device.status();
  auto owned = std::make_unique<Device>(std::move(device).value());
  Result<Engine> engine = Engine::create(*owned, compiled, options.engine);
  if (!engine.is_ok()) return engine.status();
  return StreamService(std::make_unique<Impl>(options, std::move(owned),
                                              std::move(engine).value()));
}

Result<SessionId> StreamService::open() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (!im.accepting)
    return Status::invalid_argument("StreamService is shut down");
  std::optional<SessionId> evicted;
  Session& s = im.manager.open(im.engine.dfa(), im.options.session_limits, &evicted);
  ++im.stats.sessions_opened;
  im.stats.sessions_live = im.manager.live();
  if (evicted.has_value()) {
    ++im.stats.sessions_evicted;
    im.scheduler.forget(*evicted);
    im.publish_queue_locked();
    im.record(telemetry::FlightEventKind::kEviction, *evicted);
  }
  if (im.has_metrics) {
    im.m.opened->add(1);
    if (evicted.has_value()) im.m.evicted->add(1);
    im.m.live->set(static_cast<double>(im.manager.live()));
  }
  return s.id();
}

Status StreamService::feed(SessionId id, std::string_view chunk,
                           telemetry::TraceContext trace) {
  Impl& im = *impl_;
  Stopwatch clock;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (!im.accepting)
    return Status::invalid_argument("StreamService is shut down");
  Session* s = im.manager.touch(id);
  if (s == nullptr)
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  if (Status quota = s->admit_bytes(chunk.size()); !quota) {
    ++im.stats.quota_rejects;
    if (im.has_metrics) im.m.quota_rejects->add(1);
    im.record(telemetry::FlightEventKind::kReject, id, chunk.size(),
              static_cast<std::uint32_t>(quota.code()));
    return quota;
  }
  if (!chunk.empty()) {
    Status admit = im.scheduler.admission(chunk.size());
    if (!admit && im.options.admission == AdmissionPolicy::kAutoFlush) {
      // Make room by scanning inline; each flush frees at least one chunk,
      // and an oversized chunk is admissible once the queue is empty.
      while (!admit && im.scheduler.has_work()) {
        im.flush_one_locked(lk);
        admit = im.scheduler.admission(chunk.size());
      }
    }
    if (!admit) {
      ++im.stats.feeds_rejected;
      if (im.has_metrics) im.m.feeds_rejected->add(1);
      im.record(telemetry::FlightEventKind::kReject, id, chunk.size(),
                static_cast<std::uint32_t>(admit.code()));
      return admit;
    }
  }

  const SessionStats before = s->stats();
  s->begin_chunk(chunk);  // spanning matches + carried state, O(max pattern)
  const SessionStats& after = s->stats();
  const std::uint64_t spanned = after.spanning_matches - before.spanning_matches;
  const std::uint64_t delivered = after.matches_delivered - before.matches_delivered;
  const std::uint64_t dropped = after.matches_dropped - before.matches_dropped;
  im.stats.spanning_matches += spanned;
  im.stats.matches_delivered += delivered;
  ++im.stats.feeds_accepted;
  im.stats.bytes_accepted += chunk.size();

  if (!chunk.empty()) {
    Status admitted = im.scheduler.admit(PendingChunk{
        id, after.bytes_fed - chunk.size(), std::string(chunk), trace});
    ACGPU_CHECK(admitted.is_ok(),
                "admission re-check failed after acceptance: " << admitted.to_string());
    im.publish_queue_locked();
  }
  im.record(telemetry::FlightEventKind::kAdmission, id, chunk.size());
  if (im.has_metrics) {
    im.m.feeds_accepted->add(1);
    im.m.feed_bytes->add(chunk.size());
    if (spanned > 0) im.m.matches_spanning->add(spanned);
    if (delivered > 0) im.m.matches_delivered->add(delivered);
    if (dropped > 0) im.m.matches_dropped_quota->add(dropped);
    im.m.feed_latency->observe(static_cast<double>(clock.nanos()));
  }
  if (im.options.background) {
    lk.unlock();
    im.cv_work.notify_one();
  }
  return Status::ok();
}

Result<std::vector<ac::Match>> StreamService::poll(SessionId id) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  Session* s = im.manager.touch(id);
  if (s == nullptr)
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  return s->take_matches();
}

Result<SessionStats> StreamService::session_stats(SessionId id) const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  Session* s = im.manager.find(id);
  if (s == nullptr)
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  return s->stats();
}

Status StreamService::close(SessionId id) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (!im.manager.close(id))
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  im.scheduler.forget(id);
  im.stats.sessions_live = im.manager.live();
  im.publish_queue_locked();
  if (im.has_metrics) {
    im.m.closed->add(1);
    im.m.live->set(static_cast<double>(im.manager.live()));
  }
  return Status::ok();
}

Result<SessionSnapshot> StreamService::export_session(SessionId id) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  Session* s = im.manager.find(id);
  if (s == nullptr)
    return Status::invalid_argument("unknown session id " + std::to_string(id) +
                                    " (never opened, closed, or evicted)");
  // A snapshot taken while the session still has chunks queued (or inside
  // the batch being scanned right now) would silently lose their matches:
  // the session's carried state already advanced at feed time, but the bulk
  // deliveries only arrive when the batch is scanned.
  if (im.scheduler.queued_for(id) > 0 || im.in_flight)
    return Status::overloaded(
        "session " + std::to_string(id) +
        " still has queued or in-flight chunks; drain() before exporting");
  SessionSnapshot snapshot = s->snapshot();
  im.manager.close(id);
  ++im.stats.sessions_exported;
  im.stats.sessions_live = im.manager.live();
  if (im.has_metrics) {
    im.m.exported->add(1);
    im.m.live->set(static_cast<double>(im.manager.live()));
  }
  return snapshot;
}

Status StreamService::import_session(const SessionSnapshot& snapshot) {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (!im.accepting)
    return Status::invalid_argument("StreamService is shut down");
  // The carried state indexes the STT on the next feed: a hostile or
  // foreign snapshot must name one of this DFA's states.
  const std::uint32_t states = im.engine.dfa().state_count();
  if (snapshot.dfa_state < 0 ||
      static_cast<std::uint32_t>(snapshot.dfa_state) >= states)
    return Status::invalid_argument(
        "snapshot DFA state " + std::to_string(snapshot.dfa_state) +
        " is outside this service's " + std::to_string(states) + " states");
  // The limits and stats must be ones a session can reach: within its
  // quotas, no more buffered matches than it delivered, truncated exactly
  // when the match quota dropped one, no more spanning matches than it
  // delivered and dropped, and fed bytes only in chunks.
  const SessionLimits& limits = snapshot.limits;
  const SessionStats& stats = snapshot.stats;
  if (limits.max_bytes != 0 && stats.bytes_fed > limits.max_bytes)
    return Status::invalid_argument(
        "snapshot fed " + std::to_string(stats.bytes_fed) + " bytes, past its " +
        std::to_string(limits.max_bytes) + "-byte quota");
  if (limits.max_matches != 0 && stats.matches_delivered > limits.max_matches)
    return Status::invalid_argument(
        "snapshot delivered " + std::to_string(stats.matches_delivered) +
        " matches, past its " + std::to_string(limits.max_matches) + "-match quota");
  if (snapshot.matches.size() > stats.matches_delivered)
    return Status::invalid_argument(
        "snapshot buffers " + std::to_string(snapshot.matches.size()) +
        " matches but delivered " + std::to_string(stats.matches_delivered));
  if (stats.truncated != (stats.matches_dropped > 0))
    return Status::invalid_argument(
        "snapshot truncated flag disagrees with its " +
        std::to_string(stats.matches_dropped) + " dropped matches");
  // Every spanning match was delivered or dropped, and every fed byte came
  // in a chunk.
  if (stats.spanning_matches > stats.matches_delivered &&
      stats.spanning_matches - stats.matches_delivered > stats.matches_dropped)
    return Status::invalid_argument(
        "snapshot counts " + std::to_string(stats.spanning_matches) +
        " spanning matches but delivered " + std::to_string(stats.matches_delivered) +
        " and dropped " + std::to_string(stats.matches_dropped));
  if (stats.bytes_fed > 0 && stats.chunks_fed == 0)
    return Status::invalid_argument("snapshot fed " + std::to_string(stats.bytes_fed) +
                                    " bytes in no chunk");
  // poll() hands the buffered matches back as they are: each must name one
  // of this DFA's patterns and lie inside the bytes the stream has fed, and
  // none may be buffered twice. Their order is not checked: spanning matches
  // are delivered at feed time, ahead of earlier chunks' scanned ones.
  std::vector<ac::Match> sorted = snapshot.matches;
  ac::normalize_matches(sorted);
  const auto twice = std::adjacent_find(sorted.begin(), sorted.end());
  if (twice != sorted.end())
    return Status::invalid_argument(
        "snapshot buffers the match of pattern " + std::to_string(twice->pattern) +
        " ending at " + std::to_string(twice->end) + " twice");
  const ac::Dfa& dfa = im.engine.dfa();
  for (const ac::Match& m : snapshot.matches) {
    if (m.pattern < 0 || static_cast<std::size_t>(m.pattern) >= dfa.pattern_count())
      return Status::invalid_argument(
          "snapshot match pattern id " + std::to_string(m.pattern) +
          " is outside this service's " + std::to_string(dfa.pattern_count()) +
          " patterns");
    if (m.end >= snapshot.stats.bytes_fed || m.end + 1 < dfa.pattern_length(m.pattern))
      return Status::invalid_argument(
          "snapshot match of pattern " + std::to_string(m.pattern) + " ending at " +
          std::to_string(m.end) + " lies outside the " +
          std::to_string(snapshot.stats.bytes_fed) + " bytes the session fed");
  }
  if (im.manager.find(snapshot.id) != nullptr)
    return Status::invalid_argument("session id " +
                                    std::to_string(snapshot.id) +
                                    " is already live here");
  std::optional<SessionId> evicted;
  im.manager.adopt(snapshot, im.engine.dfa(), &evicted);
  ++im.stats.sessions_imported;
  im.stats.sessions_live = im.manager.live();
  if (evicted.has_value()) {
    ++im.stats.sessions_evicted;
    im.scheduler.forget(*evicted);
    im.publish_queue_locked();
    im.record(telemetry::FlightEventKind::kEviction, *evicted);
  }
  if (im.has_metrics) {
    im.m.imported->add(1);
    if (evicted.has_value()) im.m.evicted->add(1);
    im.m.live->set(static_cast<double>(im.manager.live()));
  }
  return Status::ok();
}

Status StreamService::pump() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.options.background)
    return Status::invalid_argument(
        "pump() is synchronous-only; the background worker owns the engine");
  im.flush_one_locked(lk);
  return Status::ok();
}

Status StreamService::drain() {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  if (im.options.background) {
    im.cv_work.notify_one();
    im.cv_idle.wait(lk, [&] { return !im.scheduler.has_work() && !im.in_flight; });
  } else {
    while (im.scheduler.has_work()) im.flush_one_locked(lk);
  }
  ++im.stats.drains;
  if (im.has_metrics) im.m.drains->add(1);
  return Status::ok();
}

void StreamService::shutdown() { impl_->shutdown(); }

ServiceStats StreamService::stats() const {
  Impl& im = *impl_;
  std::unique_lock<gpusim::TrackedMutex> lk(im.mu);
  ServiceStats out = im.stats;
  out.sessions_live = im.manager.live();
  out.queued_chunks = im.scheduler.queued_chunks();
  out.queued_bytes = im.scheduler.queued_bytes();
  return out;
}

const ServeOptions& StreamService::options() const { return impl_->options; }
const ac::Dfa& StreamService::dfa() const { return impl_->engine.dfa(); }
Engine& StreamService::engine() { return impl_->engine; }

}  // namespace acgpu::serve
