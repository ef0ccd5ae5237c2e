// The dispatch evaluation sweep: scan families that each favour one backend,
// run through one calibrated Dispatcher under each forced static backend and
// under the policy being judged, family by family and then round-robin
// mixed. Every number is deterministic modeled seconds (cpumodel for the
// host backends, gpusim Timed mode for the GPU), so the decision census and
// both acceptance ratios are bit-identical on every machine. This is the
// experiment behind bench/ext_dispatch and check_regression --mode dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"
#include "telemetry/metrics_registry.h"

namespace acgpu::harness {

/// One scan family: `count` scans of `bytes` each.
struct DispatchFamily {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint32_t count = 0;
};

struct DispatchSweepConfig {
  /// The windows are narrow because the modeled host (2.2 GHz Core2 walking
  /// a cache-cold DFA) is slow and the modeled device overhead is tens of
  /// microseconds:
  ///   tiny   every per-scan overhead (parallel fork/join, PCIe latency +
  ///          pipeline fill) dwarfs the work — serial CPU territory
  ///   mid    one core's cold-cache cpb loses to the fork/join price, and
  ///          device overhead still stings — parallel CPU territory
  ///   large  the batched multi-stream pipeline's regime
  std::vector<DispatchFamily> families = {
      {"tiny", 64, 48}, {"mid", 384, 12}, {"large", 2u << 20, 3}};
  std::uint32_t pattern_count = 2000;
  std::uint64_t seed = 780;
  /// Device match-record slots per thread; Timed mode only sizes buffers
  /// with it.
  std::uint32_t match_capacity = 64;
  /// Policy of the judged ("dispatched") column; kWorst is the demo that
  /// the gates bite.
  dispatch::ForcePolicy policy = dispatch::ForcePolicy::kAuto;
  /// dispatch.* series sink; null = off.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Modeled seconds summed over one set of scans, per column.
struct DispatchTotals {
  double serial = 0;
  double parallel = 0;
  double gpu = 0;
  double dispatched = 0;

  double best_static() const;
  /// best_static / dispatched: >= 1 when the judged policy beats every
  /// static backend (0 when nothing was dispatched).
  double ratio() const;
};

struct DispatchSweepResult {
  std::vector<DispatchTotals> families;  ///< one per config family
  DispatchTotals mixed;                  ///< the round-robin interleave
  std::size_t mixed_scans = 0;
  dispatch::DispatchStats stats;         ///< census over the whole sweep

  /// Smallest per-family ratio: the model must find each family's winner.
  double single_family_min_ratio() const;
  /// The mixed sweep's ratio: adapting per scan must beat any one static
  /// backend.
  double mixed_win_ratio() const { return mixed.ratio(); }
};

/// Builds a Markov corpus and a word-aligned dictionary from `config.seed`,
/// calibrates one Dispatcher against a Timed GPU engine
/// (dispatch::calibrate), then scans every text of every family under the
/// serial, parallel and GPU forces and then under `config.policy`, and
/// finally the families interleaved round-robin the same way. Every scan,
/// forced ones included, feeds Dispatcher::observe. Throws acgpu::Error if
/// the device, the engine or a GPU scan fails.
DispatchSweepResult run_dispatch_sweep(const DispatchSweepConfig& config);

}  // namespace acgpu::harness
