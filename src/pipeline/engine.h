// acgpu::Engine — the library's supported entry point.
//
// Wraps the full compile -> stage -> match -> collect sequence behind one
// object: build it from a pattern set, then scan() any number of inputs
// through the batched multi-stream pipeline (pipeline/pipeline.h). Its
// options are the pipeline's own (EngineOptions is pipeline::PipelineOptions:
// streams, batch size, kernel geometry, telemetry sinks); every scan runs
// the paper's shared-memory kernel with the diagonal store. The simulated
// chip and its memory are the Device's (DeviceOptions), and nothing else
// sets them. The raw kernel-launch entry points
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
// The upload is bump-allocated in the device arena; dropping the engine
// returns it only while nothing was allocated above it (see ~Engine).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "ac/dfa.h"
#include "ac/pattern_set.h"
#include "gpusim/config.h"
#include "kernels/device_dfa.h"
#include "pipeline/device.h"
#include "pipeline/pipeline.h"
#include "util/error.h"

namespace acgpu {

/// An Engine's options are the pipeline's: every setting has this one home.
using EngineOptions = pipeline::PipelineOptions;

/// One scan's output: global-offset matches plus the pipeline's simulated
/// timing story (see pipeline::PipelineResult).
using ScanResult = pipeline::PipelineResult;

/// A pattern set compiled once: the host DFA, in the byte-class layout that
/// every engine uploads and every session walks. Immutable, so any number of
/// engines, services and sessions share one copy — a Router compiles one
/// for all its shards.
class CompiledPatterns {
 public:
  /// Builds the DFA (its byte-wide pitch padded to 8 words). Fails (no
  /// throw) on an empty pattern set.
  static Result<CompiledPatterns> compile(const ac::PatternSet& patterns);
  /// Takes an already built DFA (a loaded .acdfa image, say). Fails (no
  /// throw) on a DFA without patterns.
  static Result<CompiledPatterns> compile(ac::Dfa dfa);

  const ac::Dfa& dfa() const { return *dfa_; }

 private:
  CompiledPatterns() = default;

  std::shared_ptr<const ac::Dfa> dfa_;
};

class Engine {
 public:
  /// Compiles `patterns` (CompiledPatterns::compile), then creates the
  /// engine from the result as the overload below does.
  static Result<Engine> create(Device& device, const ac::PatternSet& patterns,
                               const EngineOptions& options = {});

  /// Uploads `compiled`'s class table to `device`; the engine shares
  /// the host automaton rather than copying it. The device must outlive the
  /// engine; engines sharing it serialize their scans, and this upload, on
  /// its scan mutex. Fails (no throw) on inconsistent options, or with
  /// kCapacityExceeded on a DFA of 2^24 or more states
  /// (DeviceDfa::check_state_count, naming the limit) or a device whose free
  /// arena is smaller than the upload (naming the bytes needed and free).
  static Result<Engine> create(Device& device, const CompiledPatterns& compiled,
                               const EngineOptions& options = {});

  /// Matches `text` through the batched multi-stream pipeline. Safe to call
  /// repeatedly and from any thread — scans serialize on the device's scan
  /// mutex. Fails kUnavailable when the device is marked failed.
  Result<ScanResult> scan(std::string_view text);

  /// The options as validated.
  const EngineOptions& options() const { return pipeline_->options(); }
  const CompiledPatterns& compiled() const { return compiled_; }
  const ac::Dfa& dfa() const { return compiled_.dfa(); }
  std::size_t pattern_count() const { return dfa().pattern_count(); }

  /// Process-unique engine id (never reused, monotonically increasing
  /// across all devices) — disambiguates per-engine records in traces and
  /// hostcheck reports in a multi-engine process.
  std::uint32_t id() const { return id_; }

  /// The device the engine is bound to. Stable for the engine's lifetime.
  Device& device() { return *device_; }
  const Device& device() const { return *device_; }

  /// Dropping an engine (or move-assigning over it) returns its automaton
  /// upload to the device arena when the upload is still the arena's top
  /// allocation. A drop that sits under a later upload releases nothing:
  /// the arena is a bump allocator, so its space comes back only once the
  /// engines above it are gone too, and then only for the topmost ones.
  ~Engine();
  Engine(Engine&&) = default;
  Engine& operator=(Engine&& other) noexcept;

 private:
  explicit Engine(CompiledPatterns compiled) : compiled_(std::move(compiled)) {}
  /// Takes the device's scan mutex and releases the upload to upload_mark_
  /// if it is still the arena's top allocation.
  void release_upload();

  std::uint32_t id_ = 0;
  Device* device_ = nullptr;  ///< bound device (never null once built)
  std::size_t upload_mark_ = 0;  ///< arena allocation point before the upload
  std::size_t upload_end_ = 0;   ///< and after it
  // Heap objects keep the Engine movable: DeviceDfa holds references into
  // the device arena and the shared host automaton.
  CompiledPatterns compiled_;
  std::unique_ptr<kernels::DeviceDfa> ddfa_;
  std::unique_ptr<pipeline::MatchPipeline> pipeline_;
};

}  // namespace acgpu
