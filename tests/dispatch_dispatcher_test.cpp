// The advisory Dispatcher: force policies, decision/misprediction
// accounting, the dispatch.* telemetry mirror, thread-safety of
// choose/observe (serve workers and the router's caller thread race on one
// shared instance — the TSan CI target), the host-backend helper, the
// calibration probe, and a dispatcher-wired StreamService staying
// conformant while the census advances.
#include "dispatch/dispatcher.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ac/automaton.h"
#include "ac/dfa.h"
#include "ac/parallel_matcher.h"
#include "ac/pattern_set.h"
#include "ac/serial_matcher.h"
#include "serve/service.h"
#include "telemetry/metrics_registry.h"

namespace acgpu::dispatch {
namespace {

struct Fixture {
  ac::PatternSet patterns{{"he", "she", "his", "hers"}};
  ac::Automaton automaton{patterns};
  ac::Dfa dfa{automaton, patterns, /*pad_pitch_to=*/8};
};

TEST(DispatchDispatcher, AutoFollowsTheModelAcrossTheCrossovers) {
  Fixture fx;
  Dispatcher dsp(fx.dfa);
  // Uncalibrated analytic seed: serial < ~7 KiB < parallel < ~100 KiB < GPU.
  const Decision tiny = dsp.choose(dsp.signature(std::string(1 << 10, 'a'),
                                                 /*session=*/false));
  EXPECT_EQ(tiny.backend, Backend::kSerialCpu);
  EXPECT_FALSE(tiny.forced);
  const Decision mid = dsp.choose(dsp.signature(std::string(32u << 10, 'a'),
                                                /*session=*/false));
  EXPECT_EQ(mid.backend, Backend::kParallelCpu);
  const Decision large = dsp.choose(dsp.signature(std::string(4u << 20, 'a'),
                                                  /*session=*/false));
  EXPECT_EQ(large.backend, Backend::kGpuPipeline);

  const DispatchStats stats = dsp.stats();
  EXPECT_EQ(stats.decisions[static_cast<int>(Backend::kSerialCpu)], 1u);
  EXPECT_EQ(stats.decisions[static_cast<int>(Backend::kParallelCpu)], 1u);
  EXPECT_EQ(stats.decisions[static_cast<int>(Backend::kGpuPipeline)], 1u);
}

TEST(DispatchDispatcher, ForcePoliciesPinTheBackendAndMarkForced) {
  Fixture fx;
  Dispatcher dsp(fx.dfa);
  const WorkloadSignature sig =
      dsp.signature(std::string(32u << 10, 'a'), false);
  EXPECT_EQ(dsp.choose(sig, ForcePolicy::kSerial).backend,
            Backend::kSerialCpu);
  EXPECT_EQ(dsp.choose(sig, ForcePolicy::kParallel).backend,
            Backend::kParallelCpu);
  EXPECT_EQ(dsp.choose(sig, ForcePolicy::kGpu).backend,
            Backend::kGpuPipeline);
  EXPECT_TRUE(dsp.choose(sig, ForcePolicy::kSerial).forced);

  // kWorst picks the predicted-slowest backend: at 32 KiB that is serial.
  const Decision worst = dsp.choose(sig, ForcePolicy::kWorst);
  EXPECT_TRUE(worst.forced);
  EXPECT_EQ(worst.backend, Backend::kSerialCpu);
  const auto w = static_cast<std::size_t>(worst.backend);
  for (int b = 0; b < kBackendCount; ++b)
    EXPECT_GE(worst.prediction.seconds[w],
              worst.prediction.seconds[static_cast<std::size_t>(b)]);
}

TEST(DispatchDispatcher, ConfiguredForcePolicyAppliesToPlainChoose) {
  Fixture fx;
  DispatcherOptions opt;
  opt.force = ForcePolicy::kGpu;
  Dispatcher dsp(fx.dfa, opt);
  const Decision d = dsp.choose(dsp.signature("tiny", false));
  EXPECT_EQ(d.backend, Backend::kGpuPipeline);
  EXPECT_TRUE(d.forced);
}

TEST(DispatchDispatcher, MispredictionNeedsUnforcedAndMarginBreach) {
  Fixture fx;
  Dispatcher dsp(fx.dfa);
  const WorkloadSignature sig =
      dsp.signature(std::string(32u << 10, 'a'), false);

  // Within margin of the runner-up: no misprediction.
  Decision d = dsp.choose(sig);
  dsp.observe(d, sig, d.prediction.runner_up_seconds * 1.05);
  EXPECT_EQ(dsp.stats().mispredictions, 0u);

  // Beyond the margin: counted.
  d = dsp.choose(sig);
  dsp.observe(d, sig, d.prediction.runner_up_seconds * 1.5);
  EXPECT_EQ(dsp.stats().mispredictions, 1u);

  // Forced decisions never count, however bad the actual.
  const Decision forced = dsp.choose(sig, ForcePolicy::kWorst);
  dsp.observe(forced, sig, forced.prediction.runner_up_seconds * 100.0);
  EXPECT_EQ(dsp.stats().mispredictions, 1u);
}

TEST(DispatchDispatcher, TelemetryMirrorsTheStats) {
  Fixture fx;
  telemetry::MetricsRegistry registry;
  DispatcherOptions opt;
  opt.metrics = &registry;
  Dispatcher dsp(fx.dfa, opt);

  const WorkloadSignature tiny = dsp.signature("x", false);
  dsp.choose(tiny);
  dsp.choose(tiny, ForcePolicy::kGpu);
  Decision d = dsp.choose(tiny);
  dsp.observe(d, tiny, 1.0);  // 1 modeled second: a gross misprediction

  EXPECT_EQ(registry.counter("dispatch.decisions.serial").value(), 2u);
  EXPECT_EQ(registry.counter("dispatch.decisions.gpu").value(), 1u);
  EXPECT_EQ(registry.counter("dispatch.mispredictions").value(), 1u);

  const DispatchStats stats = dsp.stats();
  EXPECT_EQ(stats.decisions[static_cast<int>(Backend::kSerialCpu)], 2u);
  EXPECT_EQ(stats.mispredictions, 1u);
}

TEST(DispatchDispatcher, ChooseAndObserveAreThreadSafe) {
  Fixture fx;
  telemetry::MetricsRegistry registry;
  DispatcherOptions opt;
  opt.metrics = &registry;
  Dispatcher dsp(fx.dfa, opt);

  constexpr int kThreads = 4;
  constexpr int kIters = 256;
  const std::string texts[] = {std::string(512, 'a'),
                               std::string(32u << 10, 'b'),
                               std::string(1u << 20, 'c')};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dsp, &texts, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string& text = texts[(t + i) % 3];
        const WorkloadSignature sig =
            dsp.signature(text, /*session=*/(i % 2) == 0);
        const Decision d = dsp.choose(sig);
        dsp.observe(d, sig, d.prediction.best_seconds * (1.0 + 0.01 * t));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const DispatchStats stats = dsp.stats();
  std::uint64_t total = 0;
  for (int b = 0; b < kBackendCount; ++b) total += stats.decisions[b];
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(DispatchDispatcher, ScanOnHostIsExactAndPricesEachCpuBackend) {
  Fixture fx;
  const CostModelConfig cfg;
  const std::string text = make_probe_text(fx.patterns, 4096, 5);
  std::vector<ac::Match> expected = ac::find_all(fx.dfa, text);
  ac::normalize_matches(expected);

  HostScan serial = scan_on_host(fx.dfa, text, Backend::kSerialCpu, cfg);
  ac::normalize_matches(serial.matches);
  EXPECT_EQ(serial.matches, expected);
  EXPECT_EQ(serial.modeled_seconds,
            modeled_serial_seconds(fx.dfa, text, cfg.cpu));

  HostScan parallel = scan_on_host(fx.dfa, text, Backend::kParallelCpu, cfg);
  ac::normalize_matches(parallel.matches);
  EXPECT_EQ(parallel.matches, expected);
  EXPECT_EQ(parallel.modeled_seconds,
            modeled_parallel_seconds(fx.dfa, text, cfg));
}

TEST(DispatchDispatcher, ProbeTextIsDeterministicAndSeeded) {
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  const std::string a = make_probe_text(patterns, 16u << 10, 42);
  const std::string b = make_probe_text(patterns, 16u << 10, 42);
  const std::string c = make_probe_text(patterns, 16u << 10, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 16u << 10);
  EXPECT_NE(a.find("hers"), std::string::npos)
      << "probe text plants pattern fragments";
}

TEST(DispatchDispatcher, CalibrationInstallsAMeasuredGpuCurve) {
  Fixture fx;
  DeviceOptions dopt;
  dopt.gpu.num_sms = 4;
  dopt.memory_bytes = 128u << 20;
  auto device = Device::create(dopt);
  ASSERT_TRUE(device.is_ok()) << device.status().to_string();
  EngineOptions eopt;
  eopt.mode = gpusim::SimMode::Timed;  // probes are throughput-only
  eopt.threads_per_block = 64;
  auto engine = Engine::create(device.value(), fx.patterns, eopt);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

  Dispatcher dsp(engine.value().dfa());
  calibrate(dsp.cost_model(), engine.value(), fx.patterns);
  const CostModel& model = dsp.cost_model();
  // The probe fit replaces the analytic seed; both legs must be sane.
  EXPECT_NE(model.gpu_bytes_per_second(), CostModelConfig{}.gpu_bytes_per_second);
  EXPECT_GT(model.gpu_overhead_seconds(), 0.0);
  EXPECT_GT(model.gpu_bytes_per_second(), 0.0);
  EXPECT_GT(model.serial_cycles_per_byte(), 0.0);
  // And the calibrated serial curve is concave: pricier per byte when tiny.
  const WorkloadSignature tiny = dsp.signature(std::string(64, 'a'), false);
  const WorkloadSignature big =
      dsp.signature(std::string(64u << 10, 'a'), false);
  const double tiny_per_byte =
      model.predict(Backend::kSerialCpu, tiny) / 64.0;
  const double big_per_byte =
      model.predict(Backend::kSerialCpu, big) / static_cast<double>(64u << 10);
  EXPECT_GT(tiny_per_byte, big_per_byte);
}

TEST(DispatchDispatcher, ServeWiredDispatcherStaysConformant) {
  Fixture fx;
  Dispatcher dispatcher(fx.dfa);

  serve::ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.dispatcher = &dispatcher;
  auto srv = serve::StreamService::create(fx.patterns, opt);
  ASSERT_TRUE(srv.is_ok()) << srv.status().to_string();

  const std::string text = make_probe_text(fx.patterns, 8192, 3);
  std::vector<ac::Match> expected = ac::find_all(srv.value().dfa(), text);
  ac::normalize_matches(expected);

  const serve::SessionId id = srv.value().open().value();
  for (std::size_t pos = 0; pos < text.size(); pos += 512)
    ASSERT_TRUE(
        srv.value().feed(id, std::string_view(text).substr(pos, 512)).is_ok());
  ASSERT_TRUE(srv.value().drain().is_ok());
  auto polled = srv.value().poll(id);
  ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
  std::vector<ac::Match> got = std::move(polled).value();
  ac::normalize_matches(got);
  EXPECT_EQ(got, expected);

  // The service consulted the shared dispatcher for its superbatches.
  const DispatchStats stats = dispatcher.stats();
  std::uint64_t total = 0;
  for (int b = 0; b < kBackendCount; ++b) total += stats.decisions[b];
  EXPECT_GE(total, 1u);
}

}  // namespace
}  // namespace acgpu::dispatch
