// Batched multi-stream matching pipeline (the library's production path).
//
// The paper's kernels assume the text is already resident on the device; at
// production scale the PCIe copy dominates a monolithic launch. MatchPipeline
// splits an arbitrarily large input into batches and runs each through a
// three-stage software pipeline — upload (H2D), compute (kernel), readback
// (D2H) — cycled across N simulated streams (gpusim/stream.h). Each stream
// is one pipeline lane; stages of different batches overlap because the
// upload queue, the compute engine, and the readback queue are independent
// resources:
//
//   upload:   [H2D b0][H2D b1][H2D b2][H2D b3]...
//   compute:          [krn b0][krn b1][krn b2]...
//   readback:                 [D2H b0][D2H b1]...
//
// Staging has one shape: one upload buffer per stream (min(streams,
// batches) of them). Batch b stages into buffer b mod streams, on stream
// b mod streams, so its H2D queues on that stream behind batch
// b - streams's kernel, the last reader of the buffer, and stream order
// alone keeps the upload off a slice still being scanned. Readback runs on
// its own DMA queue (the PCIe link is full duplex), so an upload and a
// readback proceed simultaneously and throughput approaches the
// upload-bound limit serial(copy+compute)/max(h2d, kernel, d2h). The driver
// issues each batch's D2H after the NEXT batch's H2D + kernel
// (software-pipelined issue order).
//
// Correctness at batch boundaries uses the same X-byte overlap rule as
// ac/chunking.h, one level up: each batch's device slice carries
// max_pattern_length-1 bytes of the next batch, and a match is kept iff its
// START lies in the batch's owned range — so matches spanning a boundary are
// reported exactly once, by the earlier batch.
//
// Every copy pays the link's fixed latency before its bytes, so the batch
// count comes from the link: a run splits evenly into the n that minimises
// an upload-bound pipeline's makespan, about
// sqrt(r x staged bytes / (bandwidth x latency)), and never into fewer
// batches than `batch_bytes` allows. r, the tail share, is what a staged
// byte adds to a batch's kernel and readback relative to its upload; the
// pipeline fits it over the batches it has run.
//
// The device reads the DFA's byte classes, not bytes
// (kernels/device_dfa.h), so a run maps its text through the class table
// once and ships the class text. A slice (carry included) crosses PCIe
// packed against its own symbol table (kernels/packed_text.h) when it holds
// at most 64 distinct classes: at 2 bits per symbol for at most 4, at 6
// bits for at most 64. The kernel's shared-memory staging unpacks it; every
// other slice ships one byte per symbol. The width reads the slice's
// content alone — there is no option for it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ac/match.h"
#include "gpusim/metrics.h"
#include "gpusim/stream.h"
#include "kernels/ac_kernel.h"
#include "util/error.h"

namespace acgpu::telemetry {
class MetricsRegistry;
class Tracer;
class FlightRecorder;
}

namespace acgpu::pipeline {

/// Observability sinks (telemetry/metrics_registry.h, telemetry/trace.h).
/// All default to null = telemetry off, which costs nothing on the scan path
/// beyond a branch per batch. When set, every run publishes gpusim.* and
/// pipeline.* series into the registry and records engine.scan ->
/// pipeline.run -> pipeline.batch -> kernel.simulate spans;
/// pipeline/telemetry_export.h turns the result + tracer into a Chrome
/// trace, and examples/acgpu_prof.cpp is the ready-made frontend. A
/// serve::StreamService publishes its serve.* series and serve.superbatch
/// spans through the same sinks.
struct TelemetryOptions {
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
  /// Always-on flight recorder (telemetry/flight_recorder.h): batch
  /// issue/retire and serve admission events land in its per-thread rings
  /// for postmortem dumps. Null = no recording (a branch per event).
  telemetry::FlightRecorder* recorder = nullptr;
  /// Prepended to every published series name ("device.3." turns
  /// pipeline.runs into device.3.pipeline.runs). The cluster tier sets it
  /// per shard so N devices' series never collide; "" keeps the classic
  /// single-device names.
  std::string metrics_prefix;
  /// Shard/device index stamped on flight-recorder events (0 standalone).
  std::uint32_t shard = 0;

  bool operator==(const TelemetryOptions&) const = default;
};

/// Every batch runs the paper's approach B: the slice is staged through
/// shared memory with the diagonal store. Approach A (global memory only)
/// and the naive and sequential stores are raw kernels::run_ac_kernel
/// ablations, not pipeline options.
struct PipelineOptions {
  /// Streams (pipeline lanes) to cycle batches across. 1 = no overlap (the
  /// baseline the BENCH_pipeline numbers compare against). Each stream
  /// stages its batches into its own upload buffer.
  std::uint32_t streams = 2;
  /// Owned input bytes per batch (the device slice adds the overlap carry),
  /// as a ceiling: a run never takes fewer than ceil(text / batch_bytes)
  /// batches, but may take more. Each text splits evenly into the batch
  /// count the link favours. With two or more streams that is the smallest
  /// n with n (n + 1) >= r S / (B t), about sqrt(r S / (B t)): S the staged
  /// bytes (the text at the width its whole symbol table packs it to: a
  /// quarter of it at 2 bits, three quarters at 6), B and t the GpuConfig's
  /// PCIe bandwidth and per-copy latency. It minimises n t + S/B + r S/(B n),
  /// the makespan of an upload-bound pipeline whose last batch's kernel and
  /// readback grow by r times what its upload does per staged byte. r is the
  /// tail share, one per width: a fresh pipeline takes r = 1; once its
  /// batches of that width have spanned a 2x range of staged sizes, it uses
  /// the least-squares slope of their kernel seconds plus readback
  /// payload / B against staged bytes, times B. One stream
  /// overlaps nothing and takes ceil(text / batch_bytes) batches; no run
  /// takes fewer. Purely a timing choice — matches are exact for any batch
  /// size.
  std::uint64_t batch_bytes = 4u << 20;

  /// Per-thread chunk for the AC kernels (a multiple of 4 larger than the
  /// overlap). 0 derives chunk and block per batch from the batch's slice
  /// length, aiming for 2 blocks on every SM even for small batches: the
  /// smallest legal chunk while its threads fit in half the device's
  /// resident thread slots, else max(32, smallest legal).
  std::uint32_t chunk_bytes = 0;
  /// Threads per block. With chunk_bytes == 0 this is a ceiling on the
  /// derived block; either way the block shrinks until its staging fits.
  std::uint32_t threads_per_block = 256;
  /// Match record slots per thread, 1 to 65,534: the per-thread count
  /// crosses D2H as a u16 that saturates at 65,535, so a larger capacity
  /// could not tell a full buffer from an overflowed one. A thread emits at
  /// most one record per scanned byte, so at most chunk + overlap are
  /// allocated whatever the capacity.
  std::uint32_t match_capacity = 64;

  /// Functional: every block of every batch simulated — matches exact (the
  /// conformance/audit path). Timed: sampled-wave timing per batch — the
  /// throughput path; match collection is skipped, and batches with the
  /// same slice length and symbol width reuse the first one's simulated
  /// kernel time (they are homogeneous by construction), making 100+-batch
  /// sweeps cheap.
  gpusim::SimMode mode = gpusim::SimMode::Functional;
  /// Hazard-audit hook forwarded to every batch launch. When set, per-batch
  /// device buffers are not recycled: the recorder's cross-launch global
  /// shadow would misread a reused match-buffer address as a write race.
  gpusim::AccessObserver* observer = nullptr;

  /// Metrics/tracing sinks; zero-cost when left defaulted (off).
  TelemetryOptions telemetry;

  /// Rejects inconsistent combinations (zero streams, a chunk that is not a
  /// multiple of 4, ...).
  Status validate() const;
};

/// Per-batch record on the simulated timeline. `stream` and `issue_index`
/// tie the record back to the StreamOp timeline so a run's interleaving is
/// reconstructible (and exportable as a Chrome trace) without re-running;
/// PipelineResult::batches is sorted by (issue_index, index) before return.
struct BatchTrace {
  std::uint64_t index = 0;
  std::uint32_t stream = 0;        ///< stream the batch's ops were issued on
  std::uint64_t issue_index = 0;   ///< timeline op id of the batch's H2D
  std::uint64_t owned_bytes = 0;   ///< bytes this batch reports matches for
  /// Bits per symbol the slice crossed PCIe at: 2 (at most 4 distinct
  /// classes in the slice), 6 (at most 64) or 8 (bytes).
  std::uint32_t symbol_bits = 8;
  /// H2D payload: owned + overlap carry at symbol_bits bits per symbol.
  std::uint64_t staged_bytes = 0;
  /// D2H payload: a u16 count per thread plus 4 bytes per stored record.
  std::uint64_t output_bytes = 0;
  std::uint32_t chunk_bytes = 0;   ///< per-thread kernel chunk
  std::uint32_t threads_per_block = 0;  ///< kernel block size
  double submit_seconds = 0;       ///< H2D start
  double complete_seconds = 0;     ///< D2H end
  double kernel_seconds = 0;
  std::uint32_t queue_depth = 0;  ///< in-flight batches at submit (incl. this)
};

struct PipelineStats {
  std::uint64_t batches = 0;
  std::uint64_t input_bytes = 0;   ///< text length
  std::uint64_t staged_bytes = 0;  ///< total H2D payload (carry included, packed or not)
  std::uint64_t output_bytes = 0;  ///< total D2H payload
  double makespan_seconds = 0;     ///< simulated end-to-end (copy + compute)
  double copy_busy_seconds = 0;    ///< all transfers (both directions)
  double h2d_busy_seconds = 0;     ///< upload stage busy time
  double d2h_busy_seconds = 0;     ///< readback stage busy time
  double compute_busy_seconds = 0;
  double overlap_seconds = 0;  ///< both engine classes busy simultaneously
  double overlap_ratio = 0;    ///< overlap / min(copy, compute) busy time
  /// The makespan split by the stage of each op on its critical path
  /// (gpusim::CriticalPath): the three sum to makespan_seconds, and the
  /// largest names the stage that bounded the scan.
  double critical_h2d_seconds = 0;
  double critical_kernel_seconds = 0;
  double critical_d2h_seconds = 0;
  std::uint32_t max_queue_depth = 0;
  /// Owned bytes per batch after the batch split (the last may be shorter).
  std::uint64_t effective_batch_bytes = 0;
  double latency_p50_seconds = 0;  ///< per-batch submit -> D2H-complete
  double latency_p90_seconds = 0;
  double latency_p99_seconds = 0;

  /// End-to-end matching throughput in Gbit/s of input scanned.
  double throughput_gbps() const {
    return makespan_seconds > 0
               ? static_cast<double>(input_bytes) * 8.0 / makespan_seconds / 1e9
               : 0.0;
  }
};

struct PipelineResult {
  /// Global-offset matches, sorted (end, pattern), exactly-once across batch
  /// boundaries. Complete only in Functional mode.
  std::vector<ac::Match> matches;
  /// Match records the kernels emitted, stored or not. A lane emits none
  /// past its overlap exit, so this counts fewer records than the matches
  /// every scanned byte ends, unowned ones included; it is not a match
  /// count (matches.size() is).
  std::uint64_t total_reported = 0;
  bool overflowed = false;  ///< some per-thread match slot overflowed
  /// Kernel counters summed over every simulated batch launch (batches that
  /// reuse a cached Timed duration contribute nothing — their kernel was
  /// never re-simulated).
  gpusim::Metrics metrics;
  PipelineStats stats;
  std::vector<BatchTrace> batches;
  /// The resolved stream timeline (H2D/kernel/D2H ops) — report/figure input.
  std::vector<gpusim::StreamOp> timeline;
};

/// Kernel geometry of one batch launch.
struct BatchGeometry {
  std::uint32_t chunk_bytes = 0;
  std::uint32_t threads_per_block = 0;
};

/// Chunk and block for one batch whose device slice is `slice` bytes and
/// ships at `symbol_bits` bits per symbol (8, 6 or 2). Explicit chunk_bytes
/// keeps the requested geometry and only shrinks the block until its shared
/// memory fits the SM. chunk_bytes == 0 derives both from the slice, so a
/// small batch still fills the device (texture latency is hidden only by
/// resident warps):
///  - chunk: the smallest legal chunk (the first multiple of 4 above
///    `overlap`) while its threads fit in half the device's resident thread
///    slots, else max(32, smallest). Past that point the device is full
///    either way, and each thread's overlap re-scan and 2-byte count word
///    make small chunks the slower choice (DESIGN.md has the measured
///    crossover);
///  - block: the largest multiple of 32 up to threads_per_block that still
///    gives the grid 2 blocks per SM and lets 2 blocks' shared memory
///    (kernels::staged_shared_bytes, which counts the 6-bit table and
///    exchange) share the SM; 32 when none does.
/// Geometry is a function of the slice length and width alone. The Timed
/// reuse cache keys on both, so batches that share a key run the same
/// launch: the same geometry and the same staging loop.
BatchGeometry resolve_geometry(const PipelineOptions& opt, const gpusim::GpuConfig& config,
                               std::uint32_t overlap, std::uint64_t slice,
                               std::uint32_t symbol_bits);

/// Drives one device DFA over arbitrarily many inputs. The DFA (and the
/// DeviceMemory it lives in) must outlive the pipeline; each run() allocates
/// its slot buffers on top and recycles them per batch.
class MatchPipeline {
 public:
  /// `host_observer` is the host-pipeline audit hook (gpusim/host_observer.h):
  /// it records every stream op, staged-slice access and ordering edge of
  /// each run for the hostcheck happens-before auditor, and must outlive the
  /// pipeline. Orthogonal to PipelineOptions::observer, which audits device
  /// thread interleavings inside one kernel. Null = off, zero cost; an
  /// Engine passes its Device's.
  MatchPipeline(const gpusim::GpuConfig& config, gpusim::DeviceMemory& mem,
                const kernels::DeviceDfa& ddfa, PipelineOptions options,
                gpusim::HostObserver* host_observer = nullptr);

  const PipelineOptions& options() const { return options_; }

  /// Matches `text` through the batched multi-stream pipeline. An empty text
  /// succeeds with an empty result. Fails (no throw) on inconsistent options
  /// or a device-memory budget too small for the slot buffers.
  Result<PipelineResult> run(std::string_view text);

  /// The tail share the next run's batch split assumes for a text that
  /// ships at `symbol_bits` bits per symbol, 8, 6 or 2 (see
  /// PipelineOptions::batch_bytes). Like run(), not synchronised: read it
  /// between runs.
  double tail_share(std::uint32_t symbol_bits) const;

 private:
  /// Least-squares line through (staged bytes, kernel seconds + readback
  /// payload / B) over every batch run so far.
  struct TailFit {
    double count = 0, mean_x = 0, mean_y = 0, m2_x = 0, c_xy = 0;
    double min_x = 0, max_x = 0;
    void add(double x, double y);
    /// Seconds per staged byte; none until the sizes span 2x.
    std::optional<double> slope() const;
  };

  /// tail_fits_ slot of a width: bytes, 6-bit, 2-bit.
  static std::size_t fit_index(std::uint32_t symbol_bits);

  gpusim::GpuConfig config_;  // by value: pipelines outlive caller temporaries
  gpusim::DeviceMemory& mem_;
  const kernels::DeviceDfa& ddfa_;
  PipelineOptions options_;
  gpusim::HostObserver* host_observer_;
  std::array<TailFit, 3> tail_fits_;  ///< one per width, in fit_index order
  /// Host packing buffer, kept across runs: it grows to the largest packed
  /// slice once instead of being allocated per run.
  std::vector<std::uint8_t> pack_buffer_;
};

}  // namespace acgpu::pipeline
