// The pipeline evaluation sweep: end-to-end (copy + compute) throughput of
// the batched multi-stream pipeline across stream counts and dictionary
// sizes, against the single-buffer baseline the paper's numbers implicitly
// assume (whole input staged, then one monolithic kernel, then the copy
// back — nothing overlapped). This is the experiment behind
// bench/ext_double_buffer and the BENCH_pipeline.json artifact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "gpusim/config.h"
#include "pipeline/pipeline.h"

namespace acgpu::harness {

struct PipelineSweepConfig {
  std::uint64_t text_bytes = 64ull << 20;
  std::uint64_t batch_bytes = 4ull << 20;
  std::vector<std::uint32_t> stream_counts = {1, 2, 4, 8};
  /// The criterion is judged at the largest count. Its overlap clause holds
  /// whichever stage bounds the run, but two clauses (streams=4 beating
  /// streams=2, a queue deeper than 2) only show when the kernel takes
  /// about as long as the upload, so the largest dictionary keeps the two
  /// close. On the simulated GTX 285 the 24,000-pattern kernel takes
  /// ~13 ms per 64 MB against ~17 ms of H2D, while at 8,000 patterns
  /// (~7 ms) the link bounds the run alone.
  std::vector<std::uint32_t> pattern_counts = {1000, 4000, 8000, 24000};
  /// Pattern lengths, uniform in [min, max] (the paper's range is 4-16).
  /// The floor of 6 keeps the dictionary representative of keyword lists
  /// while the match stream — and with it the D2H payload — stays a small
  /// fraction of the input, the regime a production scanner runs in.
  std::uint32_t min_pattern_len = 6;
  std::uint32_t max_pattern_len = 16;

  // Shared-approach geometry, as in the paper sweep (harness/experiment.h):
  // 192 threads x 64 B chunks stages 12.3 KB per block.
  std::uint32_t chunk_bytes = 64;
  std::uint32_t threads_per_block = 192;
  /// Timed mode never collects matches; capacity only sizes the device
  /// buffer and the D2H payload estimate.
  std::uint32_t match_capacity = 8;

  std::uint64_t seed = 780;
  std::uint64_t pattern_pool_bytes = 4ull << 20;
  std::uint64_t device_bytes = 1ull << 30;  ///< GTX 285: 1 GB
  gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
};

/// One (pattern count, stream count) grid point, with the single-buffer
/// baseline measured on the same dictionary and input.
struct PipelinePoint {
  std::uint32_t pattern_count = 0;
  std::uint32_t streams = 0;
  pipeline::PipelineStats stats;
  double baseline_seconds = 0;  ///< single-buffer: H2D, kernel, D2H in series

  double throughput_gbps() const { return stats.throughput_gbps(); }
  double baseline_gbps() const {
    return baseline_seconds > 0 ? static_cast<double>(stats.input_bytes) * 8.0 /
                                      baseline_seconds / 1e9
                                : 0.0;
  }
  double speedup_vs_single_buffer() const {
    return stats.makespan_seconds > 0 ? baseline_seconds / stats.makespan_seconds
                                      : 0.0;
  }
  /// Busiest stage over the makespan, max(h2d, kernel, d2h) / makespan: 1
  /// when the other two stages hide entirely behind it. Unlike the speedup,
  /// it does not move when a faster kernel shrinks the single-buffer
  /// baseline.
  double overlap_efficiency() const {
    const double busiest = std::max({stats.h2d_busy_seconds, stats.compute_busy_seconds,
                                     stats.d2h_busy_seconds});
    return stats.makespan_seconds > 0 ? busiest / stats.makespan_seconds : 0.0;
  }
};

struct PipelineSweepResult {
  PipelineSweepConfig config;
  std::vector<PipelinePoint> points;

  /// Best speedup over the single-buffer baseline among multi-stream
  /// points (streams >= 2) — kept for the progress table.
  double best_multi_stream_speedup() const;

  /// Overlap efficiency the criterion asks of a deep point.
  static constexpr double kRequiredEfficiency = 0.95;

  /// Best overlap efficiency among deep points (streams >= 4) at the largest
  /// pattern count — the number the acceptance criterion gates on.
  double best_deep_stream_efficiency() const;

  /// True when the streams=4 point beats streams=2 on makespan (largest
  /// pattern count) — proof extra lanes still buy overlap, where the old
  /// fixed double buffer made the two configurations byte-identical runs.
  bool streams4_vs_2_distinct() const;

  /// Deepest in-flight batch count observed across the sweep.
  std::uint64_t max_queue_depth() const;

  /// The full criterion: overlap efficiency >= 0.95 at streams >= 4,
  /// distinct streams=4 vs streams=2 points, and a queue that actually goes
  /// deeper than the old double buffer (max_queue_depth > 2).
  bool criterion_pass() const;
};

/// Runs the pattern-count x streams sweep in Timed mode. Progress lines go to
/// `progress` when non-null. Throws acgpu::Error if any pipeline run fails.
PipelineSweepResult run_pipeline_sweep(const PipelineSweepConfig& config,
                                       std::ostream* progress);

/// Serialises the sweep (config, per-point stats, and the criterion verdict)
/// as one JSON object — the BENCH_pipeline.json schema.
void write_pipeline_json(const PipelineSweepResult& result, std::ostream& out);

}  // namespace acgpu::harness
