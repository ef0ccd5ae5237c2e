// ext_observability_overhead — proves the observability stack is cheap
// enough to leave on.
//
//   ext_observability_overhead                     # 5% gate at 8 MB
//   ext_observability_overhead --size 64MB         # the CI regime
//   ext_observability_overhead --threshold 1.25    # noisy-machine margin
//
// Runs the canonical BENCH_pipeline workload (Engine::scan, Timed sim,
// kShared) twice per iteration: once with TelemetryOptions fully null and
// once with the always-on production set armed — metrics registry and
// flight recorder. The two runs swap order every iteration, so neither
// always inherits the other's warm caches or lands in the same burst of
// machine load. Wall-clock host time is taken per run and the gate is
//
//   median over iterations of (enabled / disabled) <= threshold   (default 1.05)
//
// exit 1 when the ratio exceeds it. Pairing each enabled run with the
// disabled run beside it cancels load that drifts slower than one pair.
// Tracing is excluded: the tracer is the opt-in debugging tier, not the
// always-on tier (docs/OBSERVABILITY.md).
//
// Two zero-cost claims are asserted, not measured:
//  - Disabled is structurally free: with every TelemetryOptions pointer
//    null, the pipeline's only cost is a null check per event site — the
//    recorder handed to the enabled runs is asserted untouched by the
//    disabled ones (recorded() unchanged).
//  - Zero perturbation: telemetry must observe the simulation, never steer
//    it — the simulated makespan and match count of every enabled run are
//    asserted bit-identical to the disabled run's.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "acgpu.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

using namespace acgpu;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "ext_observability_overhead: gate the wall-clock cost of the always-on "
      "observability stack (metrics + flight recorder) against the "
      "telemetry-off pipeline.\n"
      "usage: ext_observability_overhead [flags]");
  args.add_flag("size", "input size per scan", "8MB");
  args.add_flag("batch", "owned bytes per pipeline batch", "1MB");
  args.add_flag("streams", "pipeline streams", "4");
  args.add_flag("patterns", "dictionary size", "2000");
  args.add_flag("seed", "workload seed", "780");
  args.add_flag("iterations", "scan repetitions per configuration", "5");
  args.add_flag("threshold", "max allowed enabled/disabled host-time ratio",
                "1.05");
  args.add_flag("json", "write the result JSON here (empty = skip)", "");
  args.add_bool_flag("quiet", "suppress the per-iteration table");

  try {
    if (!args.parse(argc, argv)) return 0;
    const auto size = static_cast<std::uint64_t>(args.get_bytes("size"));
    const auto iterations = static_cast<std::size_t>(args.get_int("iterations"));
    const double threshold = args.get_double("threshold");
    ACGPU_CHECK(iterations > 0, "--iterations must be >= 1");

    const std::uint64_t pool_bytes = 4u << 20;
    const std::string corpus = workload::make_corpus(
        size + pool_bytes, static_cast<std::uint64_t>(args.get_int("seed")));
    workload::ExtractConfig ec;
    ec.count = static_cast<std::uint32_t>(args.get_int("patterns"));
    ec.min_length = 6;
    ec.max_length = 16;
    ec.word_aligned = true;
    const ac::PatternSet patterns =
        workload::extract_patterns({corpus.data() + size, pool_bytes}, ec);

    telemetry::MetricsRegistry registry;
    telemetry::FlightRecorder recorder;

    const auto run = [&](bool enabled) {
      EngineOptions opt;
      opt.streams = static_cast<std::uint32_t>(args.get_int("streams"));
      opt.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
      opt.mode = gpusim::SimMode::Timed;
      if (enabled) {
        opt.telemetry.metrics = &registry;
        opt.telemetry.recorder = &recorder;
      }
      DeviceOptions dopt;
      dopt.memory_bytes = 1u << 30;
      Result<Device> device = Device::create(dopt);
      ACGPU_CHECK(device.is_ok(), device.status().to_string());
      Result<Engine> engine = Engine::create(device.value(), patterns, opt);
      ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
      Stopwatch clock;
      Result<ScanResult> scan = engine.value().scan({corpus.data(), size});
      const double host_s = clock.seconds();
      ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
      struct Run {
        double host_s, makespan_s;
        std::size_t matches;
      };
      return Run{host_s, scan.value().stats.makespan_seconds,
                 scan.value().matches.size()};
    };

    std::vector<double> off_s, on_s, ratios;
    double ref_makespan = 0;
    std::size_t ref_matches = 0;
    const auto run_off = [&] {
      const std::uint64_t recorded_before = recorder.recorded();
      const auto off = run(false);
      ACGPU_CHECK(recorder.recorded() == recorded_before,
                  "the disabled pipeline touched the flight recorder");
      return off;
    };
    for (std::size_t i = 0; i < iterations; ++i) {
      const bool on_first = i % 2 == 1;
      const auto first = on_first ? run(true) : run_off();
      const auto second = on_first ? run_off() : run(true);
      const auto& off = on_first ? second : first;
      const auto& on = on_first ? first : second;
      if (i == 0) {
        ref_makespan = off.makespan_s;
        ref_matches = off.matches;
      }
      // Zero perturbation: the simulation must be bit-identical with the
      // observers attached.
      ACGPU_CHECK(off.makespan_s == ref_makespan && on.makespan_s == ref_makespan,
                  "telemetry perturbed the simulated makespan");
      ACGPU_CHECK(off.matches == ref_matches && on.matches == ref_matches,
                  "telemetry perturbed the match stream");
      off_s.push_back(off.host_s);
      on_s.push_back(on.host_s);
      ratios.push_back(off.host_s > 0 ? on.host_s / off.host_s : 0.0);
      if (!args.get_bool("quiet"))
        std::printf("iter %zu (%s first): off %s  on %s  ratio %.4f\n", i,
                    on_first ? "on" : "off", format_seconds(off.host_s).c_str(),
                    format_seconds(on.host_s).c_str(), ratios.back());
    }

    const double off_med = median(off_s);
    const double on_med = median(on_s);
    const double ratio = median(ratios);
    std::printf(
        "observability overhead: off %s, on %s, median on/off %.4f (threshold %.2f); "
        "%llu recorder event(s)\n",
        format_seconds(off_med).c_str(), format_seconds(on_med).c_str(), ratio,
        threshold, static_cast<unsigned long long>(recorder.recorded()));

    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      ACGPU_CHECK(out.good(), "cannot write " << json_path);
      out << "{\"bench\":\"observability_overhead\",\"size_bytes\":" << size
          << ",\"iterations\":" << iterations
          << ",\"off_median_seconds\":" << off_med
          << ",\"on_median_seconds\":" << on_med << ",\"ratio\":" << ratio
          << ",\"threshold\":" << threshold
          << ",\"recorder_events\":" << recorder.recorded() << "}\n";
    }

    if (ratio > threshold) {
      std::printf("ext_observability_overhead: FAIL (ratio %.4f > %.2f)\n",
                  ratio, threshold);
      return 1;
    }
    std::puts("ext_observability_overhead: PASS");
  } catch (const Error& e) {
    std::fprintf(stderr, "ext_observability_overhead: %s\n", e.what());
    return 2;
  }
  return 0;
}
