// Extension beyond the paper: staged transfer/compute overlap, measured
// through the real batched multi-stream pipeline (src/pipeline/) rather than
// modeled analytically. Sweeps dictionary sizes x stream counts against
// the single-buffer baseline (whole input staged, one monolithic kernel,
// copy back — nothing overlapped) and emits the BENCH_pipeline.json
// artifact.
//
// Exit status: 0 when the >= 64 MB acceptance regime passes the overlap
// criterion — at streams >= 4 on the largest dictionary the busiest stage
// fills >= 95% of the makespan, streams=4 strictly faster than streams=2,
// max queue depth > 2 — (or the input is below that regime), 1 otherwise.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "acgpu.h"
#include "harness/pipeline_experiment.h"

using namespace acgpu;

namespace {

// Parses a comma-separated list of small unsigned integers ("1,2,4,8").
// Returns false (leaving `out` untouched) on any malformed element.
bool parse_u32_list(const std::string& text, std::vector<std::uint32_t>* out) {
  std::vector<std::uint32_t> values;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::string item = text.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (item.empty()) return false;
    std::uint32_t value = 0;
    for (const char c : item) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<std::uint32_t>(c - '0');
    }
    values.push_back(value);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (values.empty()) return false;
  *out = std::move(values);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Extension: transfer/compute overlap through the batched multi-stream\n"
      "pipeline, vs the single-buffer shared-memory path.");
  args.add_flag("size", "input size", "64MB");
  args.add_flag("batch", "owned bytes per pipeline batch (ceiling)", "4MB");
  args.add_flag("streams", "comma-separated stream counts to sweep", "1,2,4,8");
  args.add_flag("json", "output path for the BENCH json artifact",
                "BENCH_pipeline.json");
  args.add_bool_flag("quiet", "suppress progress output");
  if (!args.parse(argc, argv)) return 0;

  harness::PipelineSweepConfig config;
  config.text_bytes = static_cast<std::uint64_t>(args.get_bytes("size"));
  config.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
  if (!parse_u32_list(args.get("streams"), &config.stream_counts)) {
    std::fprintf(stderr,
                 "ext_double_buffer: --streams wants comma-separated integers, "
                 "e.g. --streams 1,2,4,8\n");
    return 1;
  }

  std::printf("ext: pipeline transfer/compute overlap (%s input, %s batches)\n\n",
              format_bytes(config.text_bytes).c_str(),
              format_bytes(config.batch_bytes).c_str());
  const harness::PipelineSweepResult result = harness::run_pipeline_sweep(
      config, args.get_bool("quiet") ? nullptr : &std::cout);

  Table table;
  table.set_header({"patterns", "streams", "batches", "Gbps", "overlap",
                    "p99 latency", "vs single-buffer"});
  for (const harness::PipelinePoint& p : result.points) {
    char overlap[16], speedup[16];
    std::snprintf(overlap, sizeof overlap, "%.0f%%", p.stats.overlap_ratio * 100);
    std::snprintf(speedup, sizeof speedup, "%.2fx", p.speedup_vs_single_buffer());
    table.add_row({std::to_string(p.pattern_count), std::to_string(p.streams),
                   std::to_string(p.stats.batches),
                   format_gbps(p.throughput_gbps()), overlap,
                   format_seconds(p.stats.latency_p99_seconds), speedup});
  }
  std::printf("\n");
  table.print(std::cout);

  const std::string json_path = args.get("json");
  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "ext_double_buffer: cannot write %s\n", json_path.c_str());
    return 1;
  }
  harness::write_pipeline_json(result, json);
  std::printf("\nwrote %s\n", json_path.c_str());

  std::printf("best multi-stream speedup vs single-buffer: %.2fx\n",
              result.best_multi_stream_speedup());
  std::printf("best deep-stream (>= 4) overlap efficiency at largest dictionary: "
              "%.4f\n",
              result.best_deep_stream_efficiency());
  std::printf("with one upload buffer per stream and a dedicated readback "
              "queue, uploads, kernels, and readbacks of different batches "
              "run concurrently; the end-to-end win approaches "
              "serial(copy+compute) / max(h2d, compute, d2h).\n");

  // The acceptance gate applies in its stated regime (>= 64 MB input).
  if (config.text_bytes >= (64ull << 20) && !result.criterion_pass()) {
    std::fprintf(stderr,
                 "ext_double_buffer: overlap criterion failed — deep-stream "
                 "overlap efficiency %.4f (need >= %.2f), "
                 "streams4_vs_2_distinct=%s, max_queue_depth=%llu (need > 2)\n",
                 result.best_deep_stream_efficiency(),
                 harness::PipelineSweepResult::kRequiredEfficiency,
                 result.streams4_vs_2_distinct() ? "true" : "false",
                 static_cast<unsigned long long>(result.max_queue_depth()));
    return 1;
  }
  return 0;
}
