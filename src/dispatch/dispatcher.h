// acgpu::dispatch — the brain that routes scans between backends.
//
// The Dispatcher is advisory and shareable: it owns the CostModel, the
// per-dfa PatternStats, and the dispatch.* telemetry. serve::StreamService
// (host-DFA-vs-device per superbatch) and cluster::Router (bulk scans)
// consult one via choose()/observe() and run a CPU decision through
// scan_on_host(); a GPU decision takes their own device path. Thread-safe —
// serve workers and the router's caller thread may race on it.
//
// All costs are deterministic modeled seconds (cpumodel / gpusim), so the
// routing decisions — and the regression gate pinning them — are identical
// on every machine. See docs/DISPATCH.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ac/match.h"
#include "ac/pattern_set.h"
#include "dispatch/cost_model.h"
#include "dispatch/signature.h"
#include "pipeline/engine.h"
#include "telemetry/metrics_registry.h"

namespace acgpu::dispatch {

/// Routing override: kAuto trusts the cost model; the fixed policies pin
/// one backend (the static baselines of the dispatch sweep, and the oracle
/// matcher's forced routes); kWorst picks the model's predicted-slowest
/// backend — the WILL_FAIL regression demo.
enum class ForcePolicy : std::uint8_t {
  kAuto = 0,
  kSerial,
  kParallel,
  kGpu,
  kWorst,
};

struct DispatcherOptions {
  CostModelConfig cost;
  ForcePolicy force = ForcePolicy::kAuto;
  /// Optional dispatch.* series (decisions per backend, mispredictions).
  /// Null = counters still kept in-process.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct Decision {
  Backend backend = Backend::kSerialCpu;
  Prediction prediction;
  bool forced = false;
};

/// Aggregate counters, mirrored to telemetry when a registry is wired.
struct DispatchStats {
  std::uint64_t decisions[kBackendCount] = {0, 0, 0};
  std::uint64_t mispredictions = 0;
};

class Dispatcher {
 public:
  /// `dfa` must outlive the dispatcher (pattern stats are cached from it).
  Dispatcher(const ac::Dfa& dfa, const DispatcherOptions& options = {});

  const PatternStats& pattern_stats() const { return stats_; }
  WorkloadSignature signature(std::string_view text, bool session) const {
    return make_signature(stats_, text, session);
  }

  /// Ranks the backends for `sig` and applies the force policy; bumps the
  /// per-backend decision counter. The overload overrides the configured
  /// policy for this one decision (the dispatch sweep's static baselines).
  Decision choose(const WorkloadSignature& sig);
  Decision choose(const WorkloadSignature& sig, ForcePolicy force);

  /// Feeds the executed decision's actual modeled seconds back: refines
  /// the per-bucket EWMA and, for unforced decisions that lost to the
  /// predicted runner-up by more than the margin, counts a misprediction.
  void observe(const Decision& decision, const WorkloadSignature& sig,
               double actual_seconds);

  CostModel& cost_model() { return model_; }
  const CostModel& cost_model() const { return model_; }
  const DispatcherOptions& options() const { return options_; }
  DispatchStats stats() const;

 private:
  DispatcherOptions options_;
  PatternStats stats_;
  CostModel model_;

  std::atomic<std::uint64_t> decisions_[kBackendCount] = {};
  std::atomic<std::uint64_t> mispredictions_{0};

  telemetry::Counter* decision_counters_[kBackendCount] = {};
  telemetry::Counter* mispredict_counter_ = nullptr;
};

/// A CPU decision's execution: the host DFA's matches, in find order, and
/// their modeled seconds.
struct HostScan {
  std::vector<ac::Match> matches;
  double modeled_seconds = 0.0;
};

/// Runs `text` on the host for a CPU backend — ac::find_all for
/// kSerialCpu, ac::find_all_parallel over config.parallel_threads for
/// kParallelCpu — and prices it with modeled_serial_seconds /
/// modeled_parallel_seconds. `backend` must not be kGpuPipeline.
HostScan scan_on_host(const ac::Dfa& dfa, std::string_view text,
                      Backend backend, const CostModelConfig& config);

/// Deterministic probe text: pattern fragments planted in seeded random
/// filler, exactly `bytes` long.
std::string make_probe_text(const ac::PatternSet& patterns,
                            std::uint64_t bytes, std::uint64_t seed);

/// Calibrates `model` for `patterns` scanned on `engine`: the CPU curve
/// from a 16 KiB synthetic sample (CostModel::calibrate_cpu), the GPU curve
/// from a two-point 64 KiB / 256 KiB probe through the engine, fit to
/// overhead + bytes/slope. The analytic GPU seed stays when the probe is
/// degenerate (equal times, failed scans).
void calibrate(CostModel& model, Engine& engine,
               const ac::PatternSet& patterns);

}  // namespace acgpu::dispatch
