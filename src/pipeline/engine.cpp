#include "pipeline/engine.h"

#include <atomic>
#include <mutex>

#include "telemetry/trace.h"

namespace acgpu {
namespace {

/// Process-unique engine ids, across every device (see Engine::id).
std::atomic<std::uint32_t> g_next_engine_id{0};

}  // namespace

Result<CompiledPatterns> CompiledPatterns::compile(const ac::PatternSet& patterns) {
  if (patterns.empty()) return Status::invalid_argument("empty pattern set");
  try {
    return compile(ac::build_dfa(patterns, /*pad_pitch_to=*/8));
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }
}

Result<CompiledPatterns> CompiledPatterns::compile(ac::Dfa dfa) {
  if (dfa.pattern_count() == 0) return Status::invalid_argument("DFA has no patterns");
  CompiledPatterns compiled;
  compiled.dfa_ = std::make_shared<const ac::Dfa>(std::move(dfa));
  return compiled;
}

Result<Engine> Engine::create(Device& device, const ac::PatternSet& patterns,
                              const EngineOptions& options) {
  Result<CompiledPatterns> compiled = CompiledPatterns::compile(patterns);
  if (!compiled.is_ok()) return compiled.status();
  return create(device, compiled.value(), options);
}

Result<Engine> Engine::create(Device& device, const CompiledPatterns& compiled,
                              const EngineOptions& options) {
  if (Status s = kernels::DeviceDfa::check_state_count(compiled.dfa().state_count()); !s)
    return s;

  if (Status s = options.validate(); !s) return s;

  Engine engine(compiled);
  engine.id_ = g_next_engine_id.fetch_add(1, std::memory_order_relaxed);
  engine.device_ = &device;
  // A scan in flight on another engine marks/releases the arena above its
  // mark; uploading inside that region would be released under us.
  std::scoped_lock lock(device.scan_mutex());
  gpusim::DeviceMemory& mem = device.memory();
  const std::size_t needed = kernels::DeviceDfa::upload_bytes(compiled.dfa());
  if (const std::size_t free_bytes = mem.available(); needed > free_bytes)
    return Status::capacity_exceeded(
        "the automaton upload needs " + std::to_string(needed) +
        " B but device '" + device.name() + "' has " + std::to_string(free_bytes) +
        " B free");
  engine.upload_mark_ = mem.mark();
  try {
    engine.ddfa_ = std::make_unique<kernels::DeviceDfa>(mem, engine.compiled_.dfa());
    engine.pipeline_ = std::make_unique<pipeline::MatchPipeline>(
        device.gpu(), mem, *engine.ddfa_, options, device.host_observer());
  } catch (const std::exception& e) {
    mem.release(engine.upload_mark_);
    return Status::from_exception(e);
  }
  engine.upload_end_ = mem.mark();
  return engine;
}

Engine::~Engine() { release_upload(); }

Engine& Engine::operator=(Engine&& other) noexcept {
  if (this == &other) return *this;
  release_upload();
  id_ = other.id_;
  device_ = other.device_;
  upload_mark_ = other.upload_mark_;
  upload_end_ = other.upload_end_;
  compiled_ = std::move(other.compiled_);
  ddfa_ = std::move(other.ddfa_);
  pipeline_ = std::move(other.pipeline_);
  return *this;
}

void Engine::release_upload() {
  if (pipeline_ == nullptr) return;  // moved from: the upload moved too
  std::scoped_lock lock(device_->scan_mutex());
  gpusim::DeviceMemory& mem = device_->memory();
  if (mem.mark() == upload_end_) mem.release(upload_mark_);
}

Result<ScanResult> Engine::scan(std::string_view text) {
  if (pipeline_ == nullptr)
    return Status::internal("Engine used after being moved from");
  if (!device_->healthy())
    return Status::unavailable("device '" + device_->name() +
                               "' is marked failed: " + device_->fail_reason());
  ACGPU_TRACE_SPAN(options().telemetry.tracer, "engine.scan");
  // Engines sharing the device share its arena (each run marks/releases a
  // per-run region), so scans on one device are serialized here. Engines on
  // different devices proceed concurrently.
  std::scoped_lock lock(device_->scan_mutex());
  return pipeline_->run(text);
}

}  // namespace acgpu
