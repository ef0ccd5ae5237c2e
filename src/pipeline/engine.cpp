#include "pipeline/engine.h"

#include <atomic>
#include <mutex>

#include "telemetry/trace.h"

namespace acgpu {
namespace {

/// Process-unique engine ids, across every device (see Engine::id).
std::atomic<std::uint32_t> g_next_engine_id{0};

pipeline::PipelineOptions to_pipeline_options(const EngineOptions& options) {
  pipeline::PipelineOptions popt;
  popt.variant = options.variant;
  popt.scheme = options.scheme;
  popt.stt_placement = options.stt_placement;
  popt.streams = options.streams;
  popt.batch_bytes = options.batch_bytes;
  popt.pool_depth = options.pool_depth;
  popt.readback_depth = options.readback_depth;
  popt.split_readback = options.split_readback;
  popt.chunk_bytes = options.chunk_bytes;
  popt.threads_per_block = options.threads_per_block;
  popt.match_capacity = options.match_capacity;
  popt.mode = options.mode;
  popt.metrics = options.telemetry.metrics;
  popt.metrics_prefix = options.telemetry.metrics_prefix;
  popt.tracer = options.telemetry.tracer;
  popt.recorder = options.telemetry.recorder;
  popt.logger = options.telemetry.logger;
  popt.shard = options.telemetry.shard;
  popt.host_observer = options.host_observer;
  return popt;
}

}  // namespace

Result<CompiledPatterns> CompiledPatterns::compile(
    const ac::PatternSet& patterns, pipeline::KernelVariant variant) {
  if (patterns.empty()) return Status::invalid_argument("empty pattern set");
  CompiledPatterns compiled;
  try {
    // The host DFA is built for every variant: dfa() is part of the facade
    // (serial cross-checks, pattern metadata, session state) even when PFAC
    // matches.
    compiled.dfa = std::make_shared<const ac::Dfa>(
        ac::build_dfa(patterns, /*pad_pitch_to=*/8));
    if (variant == pipeline::KernelVariant::kPfac)
      compiled.pfac = std::make_shared<const ac::PfacAutomaton>(patterns);
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }
  return compiled;
}

Result<Engine> Engine::create(Device& device, const ac::PatternSet& patterns,
                              const EngineOptions& options) {
  Result<CompiledPatterns> compiled =
      CompiledPatterns::compile(patterns, options.variant);
  if (!compiled.is_ok()) return compiled.status();
  return create(device, compiled.value(), options);
}

Result<Engine> Engine::create(Device& device, const CompiledPatterns& compiled,
                              const EngineOptions& options) {
  if (compiled.dfa == nullptr || compiled.dfa->pattern_count() == 0)
    return Status::invalid_argument("DFA has no patterns");
  const bool pfac = options.variant == pipeline::KernelVariant::kPfac;
  if (pfac && compiled.pfac == nullptr)
    return Status::invalid_argument(
        "variant kPfac needs the PFAC automaton, which only a pattern set "
        "compiles (CompiledPatterns::compile)");

  EngineOptions opts = options;
  // Engines on an audited device inherit its observer seam unless they were
  // wired somewhere else explicitly.
  if (opts.host_observer == nullptr)
    opts.host_observer = device.host_observer();
  const pipeline::PipelineOptions popt = to_pipeline_options(opts);
  if (Status s = popt.validate(); !s) return s;

  Engine engine;
  engine.options_ = std::move(opts);
  engine.id_ = g_next_engine_id.fetch_add(1, std::memory_order_relaxed);
  engine.device_ = &device;
  engine.compiled_ = compiled;
  // A scan in flight on another engine marks/releases the arena above its
  // mark; uploading inside that region would be released under us.
  std::scoped_lock lock(device.scan_mutex());
  gpusim::DeviceMemory& mem = device.memory();
  const std::size_t needed =
      pfac ? kernels::DevicePfac::upload_bytes(*compiled.pfac)
           : kernels::DeviceDfa::upload_bytes(*compiled.dfa);
  if (const std::size_t free_bytes = mem.available(); needed > free_bytes)
    return Status::capacity_exceeded(
        "the automaton upload needs " + std::to_string(needed) +
        " B but device '" + device.name() + "' has " + std::to_string(free_bytes) +
        " B free");
  try {
    if (pfac) {
      engine.dpfac_ =
          std::make_unique<kernels::DevicePfac>(mem, *engine.compiled_.pfac);
      engine.pipeline_ = std::make_unique<pipeline::MatchPipeline>(
          device.gpu(), mem, *engine.dpfac_, popt);
    } else {
      engine.ddfa_ =
          std::make_unique<kernels::DeviceDfa>(mem, *engine.compiled_.dfa);
      engine.pipeline_ = std::make_unique<pipeline::MatchPipeline>(
          device.gpu(), mem, *engine.ddfa_, popt);
    }
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }
  return engine;
}

Result<ScanResult> Engine::scan(std::string_view text) {
  if (pipeline_ == nullptr)
    return Status::internal("Engine used after being moved from");
  if (!device_->healthy())
    return Status::unavailable("device '" + device_->name() +
                               "' is marked failed: " + device_->fail_reason());
  ACGPU_TRACE_SPAN(options_.telemetry.tracer, "engine.scan");
  // Engines sharing the device share its arena (each run marks/releases a
  // per-run region), so scans on one device are serialized here. Engines on
  // different devices proceed concurrently.
  std::scoped_lock lock(device_->scan_mutex());
  return pipeline_->run(text);
}

}  // namespace acgpu
