#include "dispatch/cost_model.h"

#include <algorithm>

namespace acgpu::dispatch {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSerialCpu: return "serial";
    case Backend::kParallelCpu: return "parallel";
    case Backend::kGpuPipeline: return "gpu";
  }
  return "?";
}

namespace {

/// Host scans are modeled, not wall-clocked: sample up to this many bytes
/// through cpumodel::estimate_serial to price the actual text.
constexpr std::size_t kHostSampleBytes = 64u << 10;

}  // namespace

double modeled_serial_seconds(const ac::Dfa& dfa, std::string_view text,
                              const cpumodel::CpuConfig& cpu) {
  if (text.empty()) return 0.0;
  return cpumodel::estimate_serial(
             dfa, text.substr(0, std::min(text.size(), kHostSampleBytes)),
             text.size(), cpu)
      .seconds;
}

double modeled_parallel_seconds(const ac::Dfa& dfa, std::string_view text,
                                const CostModelConfig& config) {
  if (text.empty()) return 0.0;
  const double serial = modeled_serial_seconds(dfa, text, config.cpu);
  const double speedup =
      std::max(1.0, static_cast<double>(config.parallel_threads) *
                        config.parallel_efficiency);
  return serial / speedup + config.parallel_overhead_seconds;
}

CostModelConfig seed_config(const gpusim::GpuConfig& gpu,
                            const cpumodel::CpuConfig& cpu) {
  CostModelConfig config;
  config.cpu = cpu;
  // Per-scan GPU overhead: H2D + D2H PCIe latency plus a pipeline-fill
  // allowance (first batch has no overlap partner).
  config.gpu_overhead_seconds = 2.0 * gpu.pcie_latency_seconds + 40e-6;
  // Sustained slope: PCIe transfer in series with an assumed kernel
  // throughput. Deliberately rough — dispatch::calibrate's probe replaces it.
  const double assumed_kernel_bps = 3.0e9;
  config.gpu_bytes_per_second =
      1.0 / (1.0 / gpu.pcie_bytes_per_second + 1.0 / assumed_kernel_bps);
  return config;
}

CostModel::CostModel(const CostModelConfig& config)
    : config_(config),
      serial_cycles_per_byte_(config.cpu.base_cycles_per_byte),
      gpu_overhead_seconds_(config.gpu_overhead_seconds),
      gpu_bytes_per_second_(config.gpu_bytes_per_second) {}

void CostModel::calibrate_cpu(const ac::Dfa& dfa, std::string_view sample) {
  if (sample.empty()) return;
  // Price a log-spaced ladder of prefixes: cpumodel's cache simulation
  // makes small scans several times more expensive per byte than the
  // asymptote, and a single cpb would systematically under-price them
  // (sending tiny scans to the wrong backend until the EWMA catches up).
  static constexpr std::size_t kAnchorBytes[] = {64,        256,      1u << 10,
                                                 4u << 10,  16u << 10,
                                                 64u << 10};
  // One walk prices every rung and, as its last prefix, the whole sample.
  std::vector<std::size_t> prefixes;
  for (std::size_t bytes : kAnchorBytes) {
    const std::size_t n = std::min(bytes, sample.size());
    if (prefixes.empty() || n > prefixes.back()) prefixes.push_back(n);
  }
  const std::size_t rungs = prefixes.size();
  if (sample.size() > prefixes.back()) prefixes.push_back(sample.size());
  const std::vector<cpumodel::SerialEstimate> est =
      cpumodel::estimate_serial_prefixes(dfa, sample, prefixes, config_.cpu);

  std::vector<std::pair<double, double>> anchors;
  for (std::size_t k = 0; k < rungs; ++k)
    if (est[k].seconds > 0.0)
      anchors.emplace_back(static_cast<double>(prefixes[k]), est[k].seconds);
  if (anchors.empty()) return;
  serial_anchors_ = std::move(anchors);
  // Keep the scalar accessor meaningful: the asymptotic slope of the
  // calibrated curve (its last segment), which is also what extrapolation
  // past the largest anchor uses.
  if (est.back().cycles_per_byte > 0.0)
    serial_cycles_per_byte_ = est.back().cycles_per_byte;
}

void CostModel::set_gpu_curve(double overhead_seconds,
                              double bytes_per_second) {
  if (overhead_seconds >= 0.0) gpu_overhead_seconds_ = overhead_seconds;
  if (bytes_per_second > 0.0) gpu_bytes_per_second_ = bytes_per_second;
}

double CostModel::serial_analytic_seconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  if (serial_anchors_.empty())
    return bytes * serial_cycles_per_byte_ / (config_.cpu.clock_ghz * 1e9);
  const auto& first = serial_anchors_.front();
  if (bytes <= first.first) return first.second * (bytes / first.first);
  for (std::size_t i = 1; i < serial_anchors_.size(); ++i) {
    const auto& lo = serial_anchors_[i - 1];
    const auto& hi = serial_anchors_[i];
    if (bytes <= hi.first) {
      const double t = (bytes - lo.first) / (hi.first - lo.first);
      return lo.second + t * (hi.second - lo.second);
    }
  }
  // Past the ladder: extrapolate with the asymptotic (last-segment) slope.
  const auto& last = serial_anchors_.back();
  double slope = last.second / last.first;
  if (serial_anchors_.size() >= 2) {
    const auto& prev = serial_anchors_[serial_anchors_.size() - 2];
    slope = (last.second - prev.second) / (last.first - prev.first);
  }
  return last.second + (bytes - last.first) * slope;
}

double CostModel::analytic(Backend backend,
                           const WorkloadSignature& sig) const {
  const double bytes = static_cast<double>(sig.text_bytes);
  const double serial_seconds = serial_analytic_seconds(bytes);
  switch (backend) {
    case Backend::kSerialCpu:
      return serial_seconds;
    case Backend::kParallelCpu: {
      const double speedup = std::max(
          1.0, static_cast<double>(config_.parallel_threads) *
                   config_.parallel_efficiency);
      return serial_seconds / speedup + config_.parallel_overhead_seconds;
    }
    case Backend::kGpuPipeline:
      return gpu_overhead_seconds_ + bytes / gpu_bytes_per_second_;
  }
  return serial_seconds;
}

double CostModel::predict(Backend backend,
                          const WorkloadSignature& sig) const {
  return analytic(backend, sig) * correction(backend, sig);
}

Prediction CostModel::predict_all(const WorkloadSignature& sig) const {
  Prediction p;
  std::array<double, kBackendCount> corr{1.0, 1.0, 1.0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = corrections_.find(bucket_key(bucket_of(sig)));
    if (it != corrections_.end()) corr = it->second;
  }
  for (int b = 0; b < kBackendCount; ++b)
    p.seconds[static_cast<std::size_t>(b)] =
        analytic(static_cast<Backend>(b), sig) *
        corr[static_cast<std::size_t>(b)];
  int best = 0;
  for (int b = 1; b < kBackendCount; ++b)
    if (p.seconds[static_cast<std::size_t>(b)] <
        p.seconds[static_cast<std::size_t>(best)])
      best = b;
  p.best = static_cast<Backend>(best);
  p.best_seconds = p.seconds[static_cast<std::size_t>(best)];
  p.runner_up_seconds = p.best_seconds;
  bool first = true;
  for (int b = 0; b < kBackendCount; ++b) {
    if (b == best) continue;
    const double s = p.seconds[static_cast<std::size_t>(b)];
    if (first || s < p.runner_up_seconds) p.runner_up_seconds = s;
    first = false;
  }
  return p;
}

void CostModel::observe(Backend backend, const WorkloadSignature& sig,
                        double actual_seconds) {
  if (config_.ewma_alpha <= 0.0 || actual_seconds <= 0.0) return;
  const double base = analytic(backend, sig);
  if (base <= 0.0) return;
  // Clamp the per-observation ratio so one quantization outlier cannot
  // poison a bucket; the EWMA still converges to persistent bias.
  const double ratio = std::clamp(actual_seconds / base, 0.25, 4.0);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = corrections_.try_emplace(
      bucket_key(bucket_of(sig)),
      std::array<double, kBackendCount>{1.0, 1.0, 1.0});
  double& c = it->second[static_cast<std::size_t>(backend)];
  c = (1.0 - config_.ewma_alpha) * c + config_.ewma_alpha * ratio;
}

double CostModel::correction(Backend backend,
                             const WorkloadSignature& sig) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = corrections_.find(bucket_key(bucket_of(sig)));
  if (it == corrections_.end()) return 1.0;
  return it->second[static_cast<std::size_t>(backend)];
}

}  // namespace acgpu::dispatch
