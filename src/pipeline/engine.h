// acgpu::Engine — the library's supported entry point.
//
// Wraps the full compile -> stage -> match -> collect sequence behind one
// object: build it from a pattern set (EngineOptions picks the kernel
// variant, store scheme, stream count, and batch size), then scan() any
// number of inputs through the batched multi-stream pipeline
// (pipeline/pipeline.h). The raw kernel-launch entry points
// (kernels::run_ac_kernel and friends) remain available for harness/ablation
// code but are internal API — see the migration notes in README.md.
//
// Ownership (since the cluster tier): an Engine is a lightweight automaton +
// pipeline bound to an acgpu::Device (pipeline/device.h), which owns the
// simulated GPU — its memory arena, identity, observer seam, and the scan
// mutex serializing the engines that share it:
//
//   auto device = acgpu::Device::create();
//   auto engine = acgpu::Engine::create(device.value(),
//                                       ac::PatternSet({"he", "she"}));
//   auto scan = engine.value().scan(text);
//   for (ac::Match m : scan.value().matches) { ... }
//
// The host automaton is a CompiledPatterns: compiled once, immutable, and
// shared by every engine built from it. Each engine uploads it once to its
// own device, so N shards cost one compile and N uploads (cluster/router.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "ac/dfa.h"
#include "ac/pattern_set.h"
#include "ac/pfac.h"
#include "gpusim/config.h"
#include "kernels/device_dfa.h"
#include "kernels/pfac_kernel.h"
#include "pipeline/device.h"
#include "pipeline/pipeline.h"
#include "util/error.h"

namespace acgpu {

/// Observability sinks for an Engine (telemetry/metrics_registry.h,
/// telemetry/trace.h). Both default to null = telemetry off, which costs
/// nothing on the scan path beyond a branch per batch. When set, every scan
/// publishes gpusim.*/pipeline.* series into the registry and records
/// engine.scan -> pipeline.run -> pipeline.batch -> kernel.simulate spans;
/// pipeline/telemetry_export.h turns the result + tracer into a Chrome
/// trace, and examples/acgpu_prof.cpp is the ready-made frontend.
struct TelemetryOptions {
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
  /// Always-on flight recorder (telemetry/flight_recorder.h): batch
  /// issue/retire and staging-lease events land in its per-thread rings for
  /// postmortem dumps. Null = no recording (a branch per event).
  telemetry::FlightRecorder* recorder = nullptr;
  /// Severity/rate-limited log sink (telemetry/logger.h) for one-time
  /// warnings (stream clamps) and failure events. Null = the process-global
  /// logger, which writes to stderr.
  telemetry::Logger* logger = nullptr;
  /// Prepended to every published series name ("device.3." turns
  /// pipeline.runs into device.3.pipeline.runs). The cluster tier sets it
  /// per shard so N devices' series never collide; "" keeps the classic
  /// single-device names.
  std::string metrics_prefix;
  /// Shard/device index stamped on flight-recorder events (0 standalone).
  std::uint32_t shard = 0;

  bool enabled() const {
    return metrics != nullptr || tracer != nullptr || recorder != nullptr;
  }
};

struct EngineOptions {
  /// Device kernel: the paper's shared-memory kernel (default), the
  /// global-memory ablation, or PFAC.
  pipeline::KernelVariant variant = pipeline::KernelVariant::kShared;
  /// Shared-memory store scheme (kShared only); the diagonal scheme is the
  /// paper's bank-conflict-free layout.
  kernels::StoreScheme scheme = kernels::StoreScheme::kDiagonal;
  kernels::SttPlacement stt_placement = kernels::SttPlacement::kTexture;

  /// Streams the pipeline cycles batches across (>= 2 overlaps copy with
  /// compute; 1 is the serial-staging baseline). Clamped to the staging
  /// pool depth — never silently: see pipeline.streams_clamped.
  std::uint32_t streams = 2;
  /// Owned input bytes per pipeline batch: a ceiling. Each scan splits
  /// evenly into the batch count the PCIe link and the engine's fitted
  /// kernel cost favour, and never into fewer than ceil(text / batch_bytes)
  /// batches (see pipeline::PipelineOptions::rebalance_batches).
  std::uint64_t batch_bytes = 4u << 20;
  /// Upload staging-pool depth in slice buffers; 0 = 2x streams.
  std::uint32_t pool_depth = 0;
  /// Readback staging-pool depth in output buffers; 0 = pool_depth.
  std::uint32_t readback_depth = 0;
  /// Issue D2H copies on a dedicated readback DMA queue (full-duplex PCIe).
  /// false = the GT200 single-copy-queue model, where uploads and readbacks
  /// serialize on one engine.
  bool split_readback = true;

  /// Functional simulates every block (exact matches — the default);
  /// Timed samples waves for throughput studies and skips match collection.
  gpusim::SimMode mode = gpusim::SimMode::Functional;

  /// Simulated device and its memory budget for the facades that create
  /// their own Device from these options (serve::StreamService without a
  /// device, cluster::Router per shard). Engine::create ignores them — the
  /// explicit Device carries its own.
  gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  std::size_t device_memory_bytes = 256u << 20;

  /// Advanced knobs: per-thread chunk for the AC kernels; 0 derives chunk
  /// and block per batch from its slice length (see
  /// pipeline::PipelineOptions::chunk_bytes).
  std::uint32_t chunk_bytes = 0;
  /// Threads per block; a ceiling on the derived block when chunk_bytes is 0.
  std::uint32_t threads_per_block = 256;
  std::uint32_t match_capacity = 64;

  /// Metrics/tracing sinks; zero-cost when left defaulted (off).
  TelemetryOptions telemetry;

  /// Host-pipeline audit hook (gpusim/host_observer.h): when set, every
  /// scan records its stream ops, staging leases, and ordering edges for
  /// the hostcheck happens-before auditor. Null = inherit the Device's
  /// observer (the usual wiring); set explicitly to divert one engine's
  /// records elsewhere.
  gpusim::HostObserver* host_observer = nullptr;
};

/// One scan's output: global-offset matches plus the pipeline's simulated
/// timing story (see pipeline::PipelineResult).
using ScanResult = pipeline::PipelineResult;

/// A pattern set compiled once: the host DFA every variant needs, plus
/// PFAC's failureless automaton for variant kPfac. Immutable, so any number
/// of engines, services and sessions share one copy — a Router compiles one
/// for all its shards.
struct CompiledPatterns {
  std::shared_ptr<const ac::Dfa> dfa;
  /// Variant kPfac only (PFAC cannot be rebuilt from the DFA); else null.
  std::shared_ptr<const ac::PfacAutomaton> pfac = nullptr;

  /// Builds the DFA (STT pitch padded to 8 words) and, for kPfac, the PFAC
  /// automaton. Fails (no throw) on an empty pattern set.
  static Result<CompiledPatterns> compile(const ac::PatternSet& patterns,
                                          pipeline::KernelVariant variant);
};

class Engine {
 public:
  /// Compiles `patterns` (CompiledPatterns::compile), then creates the
  /// engine from the result as the overload below does.
  static Result<Engine> create(Device& device, const ac::PatternSet& patterns,
                               const EngineOptions& options = {});

  /// Uploads `compiled` to `device`; the engine shares the host automaton
  /// rather than copying it. Variant kPfac needs compiled.pfac, which a DFA
  /// loaded from .acdfa lacks. The device must outlive the engine; engines
  /// sharing it serialize their scans, and this upload, on its scan mutex.
  /// Fails (no throw) on an automaton without patterns, inconsistent
  /// options, or — kCapacityExceeded, naming the bytes needed and free — a
  /// device whose free arena is smaller than the upload.
  static Result<Engine> create(Device& device, const CompiledPatterns& compiled,
                               const EngineOptions& options = {});

  /// Matches `text` through the batched multi-stream pipeline. Safe to call
  /// repeatedly and from any thread — scans serialize on the device's scan
  /// mutex. Fails kUnavailable when the device is marked failed.
  Result<ScanResult> scan(std::string_view text);

  const EngineOptions& options() const { return options_; }
  const CompiledPatterns& compiled() const { return compiled_; }
  const ac::Dfa& dfa() const { return *compiled_.dfa; }
  std::size_t pattern_count() const { return compiled_.dfa->pattern_count(); }

  /// Process-unique engine id (never reused, monotonically increasing
  /// across all devices) — disambiguates per-engine records in traces and
  /// hostcheck reports in a multi-engine process.
  std::uint32_t id() const { return id_; }

  /// The device the engine is bound to. Stable for the engine's lifetime.
  Device& device() { return *device_; }
  const Device& device() const { return *device_; }

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

 private:
  Engine() = default;

  EngineOptions options_;
  std::uint32_t id_ = 0;
  Device* device_ = nullptr;  ///< bound device (never null once built)
  // Heap objects keep the Engine movable: DeviceDfa/DevicePfac hold
  // references into the device arena and the shared host automaton.
  CompiledPatterns compiled_;
  std::unique_ptr<kernels::DeviceDfa> ddfa_;
  std::unique_ptr<kernels::DevicePfac> dpfac_;
  std::unique_ptr<pipeline::MatchPipeline> pipeline_;
};

}  // namespace acgpu
