// acgpu_prof — run a workload through acgpu::Engine with full telemetry and
// emit the run as explainable artifacts:
//
//   acgpu_prof --size 64MB --streams 4 --trace trace.json --metrics metrics.json
//   acgpu_prof --stats                      # human-readable metrics table
//   acgpu_prof --mode functional --csv metrics.csv
//
// The Chrome trace (open in Perfetto / chrome://tracing) shows one track per
// pipeline stream plus the copy/compute engine rows and queue-depth /
// engines-busy counter tracks; the metrics snapshot carries the gpusim.*,
// and pipeline.* series described in docs/OBSERVABILITY.md. The same
// snapshot schema is what bench/check_regression gates in CI.
//
// Exit status: 0 on success, 1 when an artifact cannot be written, 2 on bad
// usage or an engine failure.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "acgpu.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args(
      "acgpu_prof: run a synthetic workload through the batched multi-stream\n"
      "pipeline with telemetry enabled; emit a Chrome trace (Perfetto) and a\n"
      "metrics snapshot (JSON/CSV) for the run.");
  args.add_flag("size", "input size", "64MB");
  args.add_flag("batch", "owned bytes per pipeline batch", "4MB");
  args.add_flag("streams", "pipeline streams (>= 2 overlaps copy/compute)", "4");
  args.add_flag("patterns", "dictionary size (patterns extracted from corpus)", "2000");
  args.add_flag("pattern-min", "minimum pattern length", "6");
  args.add_flag("pattern-max", "maximum pattern length", "16");
  args.add_flag("seed", "workload seed", "780");
  args.add_flag("mode", "sim mode: timed|functional", "timed");
  args.add_flag("trace", "write Chrome trace-event JSON here (empty = skip)", "");
  args.add_flag("metrics", "write the metrics snapshot JSON here (empty = skip)", "");
  args.add_flag("csv", "write the metrics snapshot CSV here (empty = skip)", "");
  args.add_bool_flag("stats", "print the metrics snapshot as a table");
  args.add_bool_flag("quiet", "suppress the run summary");
  try {
    if (!args.parse(argc, argv)) return 0;

    const auto size = static_cast<std::uint64_t>(args.get_bytes("size"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::string mode_name = args.get("mode");
    ACGPU_CHECK(mode_name == "timed" || mode_name == "functional",
                "unknown --mode '" << mode_name << "' (timed|functional)");

    // Corpus + dictionary, the pipeline-sweep recipe: patterns are drawn
    // from a pool past the scanned prefix so match density is realistic.
    const std::uint64_t pool_bytes = 4u << 20;
    const std::string corpus = workload::make_corpus(size + pool_bytes, seed);
    const std::string_view input(corpus.data(), size);
    workload::ExtractConfig ec;
    ec.count = static_cast<std::uint32_t>(args.get_int("patterns"));
    ec.min_length = static_cast<std::uint32_t>(args.get_int("pattern-min"));
    ec.max_length = static_cast<std::uint32_t>(args.get_int("pattern-max"));
    ec.word_aligned = true;
    const ac::PatternSet patterns = workload::extract_patterns(
        {corpus.data() + size, pool_bytes}, ec);

    telemetry::MetricsRegistry registry;
    telemetry::Tracer tracer;

    EngineOptions opt;
    opt.streams = static_cast<std::uint32_t>(args.get_int("streams"));
    opt.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
    opt.mode = mode_name == "functional" ? gpusim::SimMode::Functional
                                         : gpusim::SimMode::Timed;
    opt.telemetry.metrics = &registry;
    opt.telemetry.tracer = &tracer;

    DeviceOptions dopt;
    dopt.memory_bytes = 1u << 30;
    Result<Device> device = Device::create(dopt);
    ACGPU_CHECK(device.is_ok(), device.status().to_string());

    Stopwatch clock;
    Result<Engine> engine = Engine::create(device.value(), patterns, opt);
    ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
    Result<ScanResult> scan = engine.value().scan(input);
    ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
    const ScanResult& result = scan.value();
    const double wall_seconds = clock.seconds();

    const telemetry::MetricsSnapshot snapshot = registry.snapshot();

    if (!args.get_bool("quiet")) {
      std::printf(
          "acgpu_prof: %s input, %u stream(s), %s batches, %s mode\n"
          "  simulated: %s makespan, %s Gbps, overlap %.0f%%\n"
          "  host: %s wall, %zu span(s), %zu metric series\n",
          format_bytes(size).c_str(), opt.streams,
          format_bytes(opt.batch_bytes).c_str(), mode_name.c_str(),
          format_seconds(result.stats.makespan_seconds).c_str(),
          format_gbps(result.stats.throughput_gbps()).c_str(),
          result.stats.overlap_ratio * 100, format_seconds(wall_seconds).c_str(),
          tracer.event_count(), snapshot.entries.size());
      if (opt.mode == gpusim::SimMode::Functional)
        std::printf("  matches: %zu\n", result.matches.size());
    }

    const std::string trace_path = args.get("trace");
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "acgpu_prof: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      pipeline::write_chrome_trace(result, &tracer, out);
      if (!args.get_bool("quiet"))
        std::printf("wrote %s (open in Perfetto or chrome://tracing)\n",
                    trace_path.c_str());
    }
    const std::string metrics_path = args.get("metrics");
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::fprintf(stderr, "acgpu_prof: cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      snapshot.write_json(out);
      if (!args.get_bool("quiet")) std::printf("wrote %s\n", metrics_path.c_str());
    }
    const std::string csv_path = args.get("csv");
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) {
        std::fprintf(stderr, "acgpu_prof: cannot write %s\n", csv_path.c_str());
        return 1;
      }
      snapshot.write_csv(out);
      if (!args.get_bool("quiet")) std::printf("wrote %s\n", csv_path.c_str());
    }
    if (args.get_bool("stats")) snapshot.write_table(std::cout);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "acgpu_prof: %s\n", e.what());
    return 2;
  }
}
