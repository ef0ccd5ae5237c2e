// acgpu::dispatch::CostModel — predicted modeled-seconds per backend.
//
// Everything in this repo runs against deterministic models (cpumodel for
// the 2.2 GHz Core2 host, gpusim for the GTX 285), so CPU and GPU costs are
// directly comparable "modeled seconds". The cost model predicts that cost
// for each of the three execution backends:
//
//   kSerialCpu    one core walking the DFA (ac::find_all); cost is
//                 bytes x cycles/byte / clock. cycles/byte is NOT flat:
//                 cpumodel simulates cold caches, so small scans pay a
//                 warm-up cpb several times the asymptote. calibrate_cpu
//                 therefore prices a log-spaced ladder of sample prefixes
//                 and analytic() interpolates the resulting (bytes,
//                 seconds) anchors; the flat base_cycles_per_byte line is
//                 only the uncalibrated fallback.
//   kParallelCpu  the multicore-AC chunked scan (ac::find_all_parallel);
//                 serial cost / (threads x efficiency) + a fork/join
//                 overhead term — so serial wins tiny inputs.
//   kGpuPipeline  the batched multi-stream Engine; a per-scan overhead
//                 (PCIe latency + pipeline fill) + bytes / throughput,
//                 seeded analytically from gpusim::GpuConfig and replaced
//                 by a two-point probe fit when dispatch::calibrate runs.
//
// The analytic curves give the crossover *shape*; online refinement keeps
// them honest: observe() folds actual modeled seconds into a per
// (signature-bucket, backend) EWMA correction factor applied on top of the
// analytic prediction. CPU backends' actuals come from the same model
// family, so their corrections hover at 1; the GPU curve learns batching
// quantization the linear fit misses. See docs/DISPATCH.md.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cpumodel/serial_timing.h"
#include "dispatch/signature.h"
#include "gpusim/config.h"

namespace acgpu::dispatch {

/// The three execution backends the dispatcher routes between.
enum class Backend : std::uint8_t {
  kSerialCpu = 0,
  kParallelCpu = 1,
  kGpuPipeline = 2,
};
inline constexpr int kBackendCount = 3;

const char* to_string(Backend backend);

struct CostModelConfig {
  /// Host model used for both CPU curves (and by the modeled executions).
  cpumodel::CpuConfig cpu = cpumodel::CpuConfig::core2();

  /// Parallel-CPU curve: modeled core count (fixed, NOT hardware
  /// concurrency — decisions must be machine-independent), scaling
  /// efficiency, and the per-scan fork/join overhead that hands tiny
  /// inputs to the serial backend.
  unsigned parallel_threads = 8;
  double parallel_efficiency = 0.70;
  double parallel_overhead_seconds = 30e-6;

  /// GPU curve seed (replaced by probe calibration when available):
  /// per-scan overhead and sustained bytes/second.
  double gpu_overhead_seconds = 60e-6;
  double gpu_bytes_per_second = 1.5e9;

  /// Online refinement: weight of the newest observation in the per-bucket
  /// correction EWMA. 0 disables refinement.
  double ewma_alpha = 0.35;
};

/// Seeds the GPU curve analytically from the chip model: overhead from two
/// PCIe latencies plus a pipeline-fill allowance, slope from the series
/// combination of PCIe bandwidth and an assumed kernel throughput.
CostModelConfig seed_config(const gpusim::GpuConfig& gpu,
                            const cpumodel::CpuConfig& cpu =
                                cpumodel::CpuConfig::core2());

struct Prediction {
  std::array<double, kBackendCount> seconds{};
  Backend best = Backend::kSerialCpu;
  double best_seconds = 0.0;
  /// Modeled seconds of the best backend that is NOT `best` — the margin
  /// mispredictions are judged against.
  double runner_up_seconds = 0.0;
};

/// Prices an actual host-side execution in modeled seconds: samples up to
/// 64KB of `text` through cpumodel::estimate_serial and scales to the full
/// length. This is the "actual" the CPU backends report back to observe()
/// — the same model family the predictions come from, so corrections
/// hover at 1 while the decisions stay deterministic.
double modeled_serial_seconds(const ac::Dfa& dfa, std::string_view text,
                              const cpumodel::CpuConfig& cpu);

/// The parallel-CPU variant: serial cost / (threads x efficiency) plus the
/// fork/join overhead, with the same sampling rule.
double modeled_parallel_seconds(const ac::Dfa& dfa, std::string_view text,
                                const CostModelConfig& config);

class CostModel {
 public:
  explicit CostModel(const CostModelConfig& config = {});

  /// Calibrates the serial cost curve from cpumodel over `sample`
  /// (typically a prefix of real traffic or synthetic text built from the
  /// dictionary): prices a log-spaced ladder of sample prefixes into
  /// (bytes, seconds) anchors so the size-dependent cache-warm-up cpb is
  /// captured, not just the asymptote. One estimate_serial_prefixes walk
  /// prices every rung and the whole sample.
  void calibrate_cpu(const ac::Dfa& dfa, std::string_view sample);

  /// Installs a measured GPU curve (from dispatch::calibrate's two-point
  /// probe); replaces the analytic seed.
  void set_gpu_curve(double overhead_seconds, double bytes_per_second);

  /// Analytic-plus-correction prediction for one backend.
  double predict(Backend backend, const WorkloadSignature& sig) const;

  /// Predictions for all backends, ranked.
  Prediction predict_all(const WorkloadSignature& sig) const;

  /// Folds an actual modeled-seconds observation into the per
  /// (bucket, backend) correction EWMA.
  void observe(Backend backend, const WorkloadSignature& sig,
               double actual_seconds);

  /// Current correction factor for (bucket of sig, backend); 1.0 when no
  /// observations have landed yet.
  double correction(Backend backend, const WorkloadSignature& sig) const;

  double serial_cycles_per_byte() const { return serial_cycles_per_byte_; }
  /// The calibrated (bytes, seconds) anchors, ascending in bytes; empty
  /// until calibrate_cpu runs.
  const std::vector<std::pair<double, double>>& serial_anchors() const {
    return serial_anchors_;
  }
  double gpu_overhead_seconds() const { return gpu_overhead_seconds_; }
  double gpu_bytes_per_second() const { return gpu_bytes_per_second_; }
  const CostModelConfig& config() const { return config_; }

 private:
  double analytic(Backend backend, const WorkloadSignature& sig) const;
  double serial_analytic_seconds(double bytes) const;

  CostModelConfig config_;
  double serial_cycles_per_byte_;
  /// Calibrated (bytes, seconds) anchors, ascending in bytes; empty until
  /// calibrate_cpu runs, in which case the flat cpb line is used.
  std::vector<std::pair<double, double>> serial_anchors_;
  double gpu_overhead_seconds_;
  double gpu_bytes_per_second_;

  mutable std::mutex mu_;  // guards corrections_ (serve workers call observe)
  std::unordered_map<std::string, std::array<double, kBackendCount>>
      corrections_;
};

}  // namespace acgpu::dispatch
