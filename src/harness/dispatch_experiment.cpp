#include "harness/dispatch_experiment.h"

#include <algorithm>
#include <string_view>

#include "pipeline/device.h"
#include "pipeline/engine.h"
#include "util/error.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::harness {

double DispatchTotals::best_static() const {
  return std::min({serial, parallel, gpu});
}

double DispatchTotals::ratio() const {
  return dispatched > 0 ? best_static() / dispatched : 0.0;
}

double DispatchSweepResult::single_family_min_ratio() const {
  double min_ratio = 1e300;
  for (const DispatchTotals& t : families)
    min_ratio = std::min(min_ratio, t.ratio());
  return min_ratio;
}

DispatchSweepResult run_dispatch_sweep(const DispatchSweepConfig& config) {
  // One corpus serves every family: scan i of a family reads at a rotated
  // offset so the texts differ without another generator pass. The
  // dictionary comes from a pool past the scanned span.
  std::uint64_t max_bytes = 0;
  for (const DispatchFamily& f : config.families)
    max_bytes = std::max(max_bytes, f.bytes);
  const std::uint64_t pool_bytes = 4u << 20;
  const std::uint64_t corpus_bytes = 2 * max_bytes + pool_bytes;
  const std::string corpus = workload::make_corpus(corpus_bytes, config.seed);
  workload::ExtractConfig ec;
  ec.count = config.pattern_count;
  ec.min_length = 6;
  ec.max_length = 16;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(
      {corpus.data() + corpus_bytes - pool_bytes, pool_bytes}, ec);

  std::vector<std::vector<std::string_view>> texts(config.families.size());
  for (std::size_t fi = 0; fi < config.families.size(); ++fi) {
    const DispatchFamily& f = config.families[fi];
    const std::uint64_t span = corpus_bytes - pool_bytes - f.bytes;
    for (std::uint32_t i = 0; i < f.count; ++i)
      texts[fi].emplace_back(
          corpus.data() + (span / std::max(1u, f.count)) * i, f.bytes);
  }

  DeviceOptions dopt;
  dopt.memory_bytes = 1u << 30;
  Result<Device> device = Device::create(dopt);
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  EngineOptions eopt;
  eopt.streams = 4;
  eopt.batch_bytes = 1u << 20;
  eopt.mode = gpusim::SimMode::Timed;
  eopt.match_capacity = config.match_capacity;
  Result<Engine> created = Engine::create(device.value(), patterns, eopt);
  ACGPU_CHECK(created.is_ok(), created.status().to_string());
  Engine& engine = created.value();

  dispatch::DispatcherOptions dsp_opt;
  dsp_opt.metrics = config.metrics;
  dispatch::Dispatcher dispatcher(engine.dfa(), dsp_opt);
  dispatch::calibrate(dispatcher.cost_model(), engine, patterns);

  // One scan under `force`: the GPU leg runs the engine, a CPU leg the
  // host helper, and either way the outcome refines the model.
  const auto scan = [&](std::string_view text, dispatch::ForcePolicy force) {
    const dispatch::WorkloadSignature sig =
        dispatcher.signature(text, /*session=*/false);
    const dispatch::Decision decision = dispatcher.choose(sig, force);
    double seconds = 0.0;
    if (decision.backend == dispatch::Backend::kGpuPipeline) {
      Result<ScanResult> r = engine.scan(text);
      ACGPU_CHECK(r.is_ok(), r.status().to_string());
      ACGPU_CHECK(!r.value().overflowed, "dispatch sweep: GPU scan overflowed");
      seconds = r.value().stats.makespan_seconds;
    } else {
      seconds = dispatch::scan_on_host(engine.dfa(), text, decision.backend,
                                       dispatcher.cost_model().config())
                    .modeled_seconds;
    }
    dispatcher.observe(decision, sig, seconds);
    return seconds;
  };
  const auto scan_all = [&](std::string_view text, DispatchTotals& t) {
    t.serial += scan(text, dispatch::ForcePolicy::kSerial);
    t.parallel += scan(text, dispatch::ForcePolicy::kParallel);
    t.gpu += scan(text, dispatch::ForcePolicy::kGpu);
    t.dispatched += scan(text, config.policy);
  };

  DispatchSweepResult result;
  result.families.resize(config.families.size());
  for (std::size_t fi = 0; fi < config.families.size(); ++fi)
    for (std::string_view text : texts[fi])
      scan_all(text, result.families[fi]);

  // The shape of real traffic: many tiny scans between every mid, a large
  // one now and then.
  std::uint32_t max_count = 0;
  for (const DispatchFamily& f : config.families)
    max_count = std::max(max_count, f.count);
  for (std::uint32_t i = 0; i < max_count; ++i)
    for (std::size_t fi = 0; fi < config.families.size(); ++fi)
      if (i < config.families[fi].count) {
        scan_all(texts[fi][i], result.mixed);
        ++result.mixed_scans;
      }

  result.stats = dispatcher.stats();
  return result;
}

}  // namespace acgpu::harness
