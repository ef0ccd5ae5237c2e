// The cost model's three analytic curves, the anchor-ladder CPU
// calibration (cpumodel's cold-cache warm-up must make small scans more
// expensive per byte than the asymptote; over a large sample, the one
// split walk prices every rung exactly as a fresh reference walk), the GPU
// curve install, and the per-bucket EWMA refinement with its clamped
// observation ratio.
#include "dispatch/cost_model.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "ac/automaton.h"
#include "ac/dfa.h"
#include "ac/pattern_set.h"
#include "dispatch/signature.h"
#include "reference_serial_model.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::dispatch {
namespace {

struct Fixture {
  ac::PatternSet patterns{{"he", "she", "his", "hers"}};
  ac::Automaton automaton{patterns};
  ac::Dfa dfa{automaton, patterns, /*pad_pitch_to=*/8};
  PatternStats stats = compute_pattern_stats(dfa);

  WorkloadSignature sig(std::size_t bytes) const {
    return make_signature(stats, std::string(bytes, 'a'), /*session=*/false);
  }
};

TEST(DispatchCostModel, UncalibratedCrossoversFollowTheAnalyticSeed) {
  Fixture fx;
  CostModel model;  // flat cpb line, analytic GPU seed
  // Tiny: the parallel fork/join and GPU per-scan overheads dominate.
  const Prediction tiny = model.predict_all(fx.sig(1 << 10));
  EXPECT_EQ(tiny.best, Backend::kSerialCpu);
  // Mid: serial cost amortizes the fork/join but not the GPU overhead.
  const Prediction mid = model.predict_all(fx.sig(32u << 10));
  EXPECT_EQ(mid.best, Backend::kParallelCpu);
  // Large: bytes/throughput dwarfs every overhead; the GPU slope wins.
  const Prediction large = model.predict_all(fx.sig(4u << 20));
  EXPECT_EQ(large.best, Backend::kGpuPipeline);
}

TEST(DispatchCostModel, PredictionRanksAndExposesTheRunnerUp) {
  Fixture fx;
  CostModel model;
  const Prediction p = model.predict_all(fx.sig(32u << 10));
  EXPECT_EQ(p.best_seconds,
            p.seconds[static_cast<std::size_t>(p.best)]);
  double second_best = 0.0;
  bool first = true;
  for (int b = 0; b < kBackendCount; ++b) {
    if (static_cast<Backend>(b) == p.best) continue;
    const double s = p.seconds[static_cast<std::size_t>(b)];
    if (first || s < second_best) second_best = s;
    first = false;
  }
  EXPECT_EQ(p.runner_up_seconds, second_best);
  EXPECT_GE(p.runner_up_seconds, p.best_seconds);
}

TEST(DispatchCostModel, CalibrationCapturesTheColdCacheWarmup) {
  Fixture fx;
  CostModel model;
  const std::string sample(256u << 10, 'a');
  model.calibrate_cpu(fx.dfa, sample);
  EXPECT_GT(model.serial_cycles_per_byte(), 0.0);

  // The modeled per-byte cost must DECREASE with size: small scans pay the
  // cache warm-up, the asymptote does not. A flat line would fail this.
  const double tiny = model.predict(Backend::kSerialCpu, fx.sig(64));
  const double big = model.predict(Backend::kSerialCpu, fx.sig(64u << 10));
  EXPECT_GT(tiny / 64.0, big / static_cast<double>(64u << 10));

  // Total seconds stay monotone in bytes across the ladder.
  double prev = 0.0;
  for (std::size_t bytes : {64u, 256u, 1024u, 4096u, 16384u, 65536u,
                            262144u}) {
    const double s = model.predict(Backend::kSerialCpu, fx.sig(bytes));
    EXPECT_GT(s, prev) << "at " << bytes;
    prev = s;
  }
}

TEST(DispatchCostModel, CalibrationOverALargeSampleMatchesFreshReferenceWalks) {
  // A 1 MB sample walks in several shares (one worker per 256 KB, as many
  // as the hardware threads allow). Every anchor must equal a fresh
  // single-threaded reference walk of its rung, and the asymptotic cpb
  // one of the whole sample.
  const std::string corpus = workload::make_corpus(2u << 20, 17);
  workload::ExtractConfig ec;
  ec.count = 1000;
  const ac::Dfa dfa =
      ac::build_dfa(workload::extract_patterns(std::string_view(corpus).substr(1u << 20), ec));
  const std::string_view sample = std::string_view(corpus).substr(0, 1u << 20);
  CostModel model;
  model.calibrate_cpu(dfa, sample);

  const cpumodel::CpuConfig& cpu = model.config().cpu;
  static constexpr std::size_t kRungs[] = {64, 256, 1024, 4096, 16384, 65536};
  const auto& anchors = model.serial_anchors();
  ASSERT_EQ(anchors.size(), std::size(kRungs));
  for (std::size_t k = 0; k < anchors.size(); ++k) {
    EXPECT_EQ(anchors[k].first, static_cast<double>(kRungs[k]));
    EXPECT_EQ(anchors[k].second,
              cpumodel::reference::estimate_serial(dfa, sample.substr(0, kRungs[k]),
                                                   kRungs[k], cpu)
                  .seconds)
        << "rung " << kRungs[k];
  }
  EXPECT_EQ(model.serial_cycles_per_byte(),
            cpumodel::reference::estimate_serial(dfa, sample, sample.size(), cpu)
                .cycles_per_byte);
}

TEST(DispatchCostModel, InterpolationStaysBetweenAnchors) {
  Fixture fx;
  CostModel model;
  model.calibrate_cpu(fx.dfa, std::string(128u << 10, 'a'));
  // 512 B sits between the 256 B and 1 KiB anchors; piecewise-linear
  // interpolation must land between the endpoint prices.
  const double lo = model.predict(Backend::kSerialCpu, fx.sig(256));
  const double mid = model.predict(Backend::kSerialCpu, fx.sig(512));
  const double hi = model.predict(Backend::kSerialCpu, fx.sig(1024));
  EXPECT_GT(mid, lo);
  EXPECT_LT(mid, hi);
}

TEST(DispatchCostModel, GpuCurveInstallReplacesTheSeed) {
  CostModel model;
  model.set_gpu_curve(/*overhead_seconds=*/123e-6,
                      /*bytes_per_second=*/2.5e9);
  EXPECT_DOUBLE_EQ(model.gpu_overhead_seconds(), 123e-6);
  EXPECT_DOUBLE_EQ(model.gpu_bytes_per_second(), 2.5e9);
  Fixture fx;
  const double s = model.predict(Backend::kGpuPipeline, fx.sig(1u << 20));
  EXPECT_DOUBLE_EQ(s, 123e-6 + static_cast<double>(1u << 20) / 2.5e9);
}

TEST(DispatchCostModel, ObserveRefinesOnlyTheTouchedBucket) {
  Fixture fx;
  CostModel model;
  const WorkloadSignature sig = fx.sig(32u << 10);
  EXPECT_DOUBLE_EQ(model.correction(Backend::kSerialCpu, sig), 1.0);

  // Actual = 2x analytic: correction moves toward 2 by one EWMA step.
  const double base = model.predict(Backend::kSerialCpu, sig);
  model.observe(Backend::kSerialCpu, sig, 2.0 * base);
  const double corr = model.correction(Backend::kSerialCpu, sig);
  const double alpha = model.config().ewma_alpha;
  EXPECT_NEAR(corr, (1.0 - alpha) + alpha * 2.0, 1e-12);

  // Other backends and other buckets are untouched.
  EXPECT_DOUBLE_EQ(model.correction(Backend::kGpuPipeline, sig), 1.0);
  EXPECT_DOUBLE_EQ(model.correction(Backend::kSerialCpu, fx.sig(4u << 20)),
                   1.0);
}

TEST(DispatchCostModel, ObservationRatioIsClamped) {
  Fixture fx;
  CostModel model;
  const WorkloadSignature sig = fx.sig(8u << 10);
  const double base = model.predict(Backend::kSerialCpu, sig);
  const double alpha = model.config().ewma_alpha;
  // A 100x outlier contributes at most the 4.0 clamp...
  model.observe(Backend::kSerialCpu, sig, 100.0 * base);
  EXPECT_NEAR(model.correction(Backend::kSerialCpu, sig),
              (1.0 - alpha) + alpha * 4.0, 1e-12);
  // ...and a near-zero one at least the 0.25 clamp.
  CostModel low;
  low.observe(Backend::kSerialCpu, sig, 1e-15);
  EXPECT_GE(low.correction(Backend::kSerialCpu, sig),
            (1.0 - alpha) + alpha * 0.25 - 1e-12);
}

TEST(DispatchCostModel, ZeroAlphaDisablesRefinement) {
  Fixture fx;
  CostModelConfig cfg;
  cfg.ewma_alpha = 0.0;
  CostModel model(cfg);
  const WorkloadSignature sig = fx.sig(8u << 10);
  model.observe(Backend::kSerialCpu, sig,
                10.0 * model.predict(Backend::kSerialCpu, sig));
  EXPECT_DOUBLE_EQ(model.correction(Backend::kSerialCpu, sig), 1.0);
}

TEST(DispatchCostModel, ModeledActualsTrackTheCurveFamily) {
  Fixture fx;
  const CostModelConfig cfg;
  const std::string text(64u << 10, 'a');
  const double serial = modeled_serial_seconds(fx.dfa, text, cfg.cpu);
  const double parallel = modeled_parallel_seconds(fx.dfa, text, cfg);
  EXPECT_GT(serial, 0.0);
  // Parallel = serial / speedup + fork/join overhead.
  const double speedup =
      static_cast<double>(cfg.parallel_threads) * cfg.parallel_efficiency;
  EXPECT_NEAR(parallel, serial / speedup + cfg.parallel_overhead_seconds,
              serial * 0.05);
  EXPECT_LT(parallel, serial);  // 64 KiB amortizes the fork/join
}

}  // namespace
}  // namespace acgpu::dispatch
