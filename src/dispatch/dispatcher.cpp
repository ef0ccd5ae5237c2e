#include "dispatch/dispatcher.h"

#include <algorithm>

#include "ac/parallel_matcher.h"
#include "ac/serial_matcher.h"
#include "util/rng.h"

namespace acgpu::dispatch {

/// An auto decision counts as mispredicted when its actual modeled seconds
/// exceed the predicted runner-up by this fraction.
constexpr double kMispredictMargin = 0.10;

Dispatcher::Dispatcher(const ac::Dfa& dfa, const DispatcherOptions& options)
    : options_(options), stats_(compute_pattern_stats(dfa)),
      model_(options.cost) {
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *options_.metrics;
    for (int b = 0; b < kBackendCount; ++b)
      decision_counters_[b] = &m.counter(std::string("dispatch.decisions.") +
                                         to_string(static_cast<Backend>(b)));
    mispredict_counter_ = &m.counter("dispatch.mispredictions");
  }
}

Decision Dispatcher::choose(const WorkloadSignature& sig) {
  return choose(sig, options_.force);
}

Decision Dispatcher::choose(const WorkloadSignature& sig,
                            ForcePolicy force) {
  Decision d;
  d.prediction = model_.predict_all(sig);
  switch (force) {
    case ForcePolicy::kAuto:
      d.backend = d.prediction.best;
      break;
    case ForcePolicy::kSerial:
      d.backend = Backend::kSerialCpu;
      d.forced = true;
      break;
    case ForcePolicy::kParallel:
      d.backend = Backend::kParallelCpu;
      d.forced = true;
      break;
    case ForcePolicy::kGpu:
      d.backend = Backend::kGpuPipeline;
      d.forced = true;
      break;
    case ForcePolicy::kWorst: {
      int worst = 0;
      for (int b = 1; b < kBackendCount; ++b)
        if (d.prediction.seconds[static_cast<std::size_t>(b)] >
            d.prediction.seconds[static_cast<std::size_t>(worst)])
          worst = b;
      d.backend = static_cast<Backend>(worst);
      d.forced = true;
      break;
    }
  }
  const auto b = static_cast<std::size_t>(d.backend);
  decisions_[b].fetch_add(1, std::memory_order_relaxed);
  if (decision_counters_[b] != nullptr) decision_counters_[b]->add(1);
  return d;
}

void Dispatcher::observe(const Decision& decision,
                         const WorkloadSignature& sig,
                         double actual_seconds) {
  model_.observe(decision.backend, sig, actual_seconds);
  if (decision.forced) return;
  if (actual_seconds > decision.prediction.runner_up_seconds *
                           (1.0 + kMispredictMargin)) {
    mispredictions_.fetch_add(1, std::memory_order_relaxed);
    if (mispredict_counter_ != nullptr) mispredict_counter_->add(1);
  }
}

DispatchStats Dispatcher::stats() const {
  DispatchStats s;
  for (int b = 0; b < kBackendCount; ++b)
    s.decisions[b] = decisions_[b].load(std::memory_order_relaxed);
  s.mispredictions = mispredictions_.load(std::memory_order_relaxed);
  return s;
}

HostScan scan_on_host(const ac::Dfa& dfa, std::string_view text,
                      Backend backend, const CostModelConfig& config) {
  ACGPU_CHECK(backend != Backend::kGpuPipeline,
              "scan_on_host runs the CPU backends only");
  HostScan out;
  if (backend == Backend::kSerialCpu) {
    out.matches = ac::find_all(dfa, text);
    out.modeled_seconds = modeled_serial_seconds(dfa, text, config.cpu);
  } else {
    out.matches = ac::find_all_parallel(dfa, text, config.parallel_threads);
    out.modeled_seconds = modeled_parallel_seconds(dfa, text, config);
  }
  return out;
}

namespace {

/// Calibration probe sizes: the CPU sample, then the GPU curve's two points.
constexpr std::uint64_t kCpuSampleBytes = 16u << 10;
constexpr std::uint64_t kGpuProbeSmallBytes = 64u << 10;
constexpr std::uint64_t kGpuProbeLargeBytes = 256u << 10;

/// FNV-1a over every pattern's bytes — the probe texts' seed. A separator
/// byte after each pattern keeps {"ab","c"} and {"a","bc"} apart.
std::uint64_t pattern_hash(const ac::PatternSet& patterns) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (std::string_view p : patterns) {
    for (char c : p) mix(static_cast<std::uint8_t>(c));
    mix(0xffu);
  }
  return h;
}

}  // namespace

std::string make_probe_text(const ac::PatternSet& patterns,
                            std::uint64_t bytes, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0x7e57));
  std::string text;
  text.reserve(bytes);
  while (text.size() < bytes) {
    // ~1 planted pattern fragment per 256 filler bytes keeps the match
    // density realistic without flooding match buffers.
    if (!patterns.empty() && rng.next_below(256) == 0) {
      std::string_view p = patterns[rng.next_below(
          static_cast<std::uint64_t>(patterns.size()))];
      text.append(p.substr(0, std::min<std::size_t>(p.size(),
                                                    bytes - text.size())));
    } else {
      text.push_back(static_cast<char>('a' + rng.next_below(26)));
    }
  }
  return text;
}

void calibrate(CostModel& model, Engine& engine,
               const ac::PatternSet& patterns) {
  const std::uint64_t seed = pattern_hash(patterns);
  // CPU curve: the cost ladder over a synthetic sample built from the
  // dictionary.
  const std::string sample = make_probe_text(patterns, kCpuSampleBytes, seed);
  model.calibrate_cpu(engine.dfa(), sample);

  // GPU curve: two-point probe through the real engine, fit to
  // overhead + bytes/slope.
  const std::string small_text =
      make_probe_text(patterns, kGpuProbeSmallBytes, seed);
  const std::string large_text =
      make_probe_text(patterns, kGpuProbeLargeBytes, seed);
  Result<ScanResult> s = engine.scan(small_text);
  Result<ScanResult> l = engine.scan(large_text);
  if (s.is_ok() && l.is_ok()) {
    const double ts = s.value().stats.makespan_seconds;
    const double tl = l.value().stats.makespan_seconds;
    const double db = static_cast<double>(large_text.size()) -
                      static_cast<double>(small_text.size());
    if (tl > ts && db > 0.0) {
      const double slope_bps = db / (tl - ts);
      const double overhead = std::max(
          0.0, ts - static_cast<double>(small_text.size()) / slope_bps);
      model.set_gpu_curve(overhead, slope_bps);
    }
  }
}

}  // namespace acgpu::dispatch
