#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "kernels/packed_text.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "util/stats.h"

namespace acgpu::pipeline {

Status PipelineOptions::validate() const {
  if (streams == 0) return Status::invalid_argument("streams must be >= 1");
  if (batch_bytes == 0) return Status::invalid_argument("batch_bytes must be >= 1");
  if (chunk_bytes != 0 && chunk_bytes % 4 != 0)
    return Status::invalid_argument("chunk_bytes must be a multiple of 4");
  if (threads_per_block == 0 || threads_per_block % 32 != 0)
    return Status::invalid_argument("threads_per_block must be a positive multiple of 32");
  // A thread's match count crosses D2H as a u16 that saturates at
  // MatchBuffer::kMaxCount; a capacity below it keeps overflow visible.
  if (match_capacity == 0 || match_capacity >= kernels::MatchBuffer::kMaxCount)
    return Status::invalid_argument(
        "match_capacity must be in [1, " +
        std::to_string(kernels::MatchBuffer::kMaxCount - 1) + "], got " +
        std::to_string(match_capacity));
  return Status::ok();
}

namespace {

/// The run's batch split.
struct StagingPlan {
  std::uint64_t batch_bytes = 0;
  std::uint64_t batches = 0;
  /// Bits per symbol the whole text's symbol table packs it at (8: bytes).
  /// Every slice packs at least as tightly, so the run stages about
  /// symbol_bits / 8 of its length.
  std::uint32_t symbol_bits = 8;
  /// The tail share the split assumed (see link_batches).
  double tail_share = 1;
};

/// Batch count that minimises an upload-bound pipeline's makespan. Split
/// `staged` bytes into n batches over a link with a fixed per-copy cost t
/// and bandwidth B. The uploads queue on the link and take n t + S/B; the
/// last batch's kernel and readback follow them, and cost a fixed part plus
/// r S/(B n), r the tail share (what a staged byte adds to them, relative
/// to its upload):
///   f(n) = n t + S / B + fixed + r S / (B n).
/// f(n + 1) - f(n) = t - r S / (B n (n + 1)), so f falls until
/// n (n + 1) >= r S / (B t); the smallest such n, the root of
/// n^2 + n = r S / (B t) rounded up (about sqrt(r S / (B t))), is the
/// optimum, and a tie keeps the fewer batches. r = 1 gives
/// (n + 1) (t + S / (B n)) up to the fixed part. No batch is smaller than a
/// byte. A link with no fixed cost never stops rewarding more batches, so it
/// gets one.
std::uint64_t link_batches(const gpusim::GpuConfig& config, std::uint64_t staged,
                           double tail_share) {
  const double fixed_cost_bytes =
      config.pcie_bytes_per_second * config.pcie_latency_seconds;
  if (!(fixed_cost_bytes > 0)) return 1;
  const double ratio = tail_share * static_cast<double>(staged) / fixed_cost_bytes;
  const double root = (std::sqrt(1 + 4 * ratio) - 1) / 2;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::min(root, static_cast<double>(staged)))));
}

/// Splits a non-empty text evenly into the link's optimal batch count,
/// never into fewer than batch_bytes allows. One lane overlaps nothing, so
/// there extra batches only add copy latency.
StagingPlan resolve_staging(const PipelineOptions& opt, const gpusim::GpuConfig& config,
                            std::uint64_t len, std::uint32_t symbol_bits, double tail_share) {
  StagingPlan plan;
  plan.symbol_bits = symbol_bits;
  plan.tail_share = tail_share;
  std::uint64_t n = (len + opt.batch_bytes - 1) / opt.batch_bytes;
  if (opt.streams > 1)
    n = std::max(n, link_batches(config, kernels::packed_size(len, symbol_bits), tail_share));
  plan.batch_bytes = (len + n - 1) / n;
  plan.batches = (len + plan.batch_bytes - 1) / plan.batch_bytes;
  return plan;
}

/// Smallest legal AC chunk: the first multiple of 4 above the overlap.
std::uint32_t min_chunk(std::uint32_t overlap) { return (overlap + 4) & ~3u; }

/// Largest block (a multiple of 32, at most `ceiling`) whose shared memory
/// for text at `symbol_bits` bits per symbol (kernels::staged_shared_bytes:
/// the staged region, plus the 6-bit table and exchange) fits in `budget`
/// bytes; 0 if none does.
std::uint32_t largest_staged_block(std::uint32_t ceiling, std::uint32_t chunk_bytes,
                                   std::uint32_t budget, std::uint32_t symbol_bits) {
  std::uint32_t block = ceiling / 32 * 32;
  while (block > 0 && kernels::staged_shared_bytes(chunk_bytes, block, symbol_bits) > budget)
    block -= 32;
  return block;
}

}  // namespace

BatchGeometry resolve_geometry(const PipelineOptions& opt, const gpusim::GpuConfig& config,
                               std::uint32_t overlap, std::uint64_t slice,
                               std::uint32_t symbol_bits) {
  if (opt.chunk_bytes != 0)
    return {opt.chunk_bytes, largest_staged_block(opt.threads_per_block, opt.chunk_bytes,
                                                  config.shared_mem_bytes, symbol_bits)};

  const std::uint32_t smallest = min_chunk(overlap);
  const std::uint64_t half_resident =
      std::uint64_t{config.num_sms} * config.max_threads_per_sm / 2;
  const std::uint32_t chunk = (slice + smallest - 1) / smallest <= half_resident
                                  ? smallest
                                  : std::max<std::uint32_t>(32, smallest);
  const std::uint64_t threads = (slice + chunk - 1) / chunk;
  // ceil(threads / block) >= 2 * num_sms  <=>  block <= (threads - 1) / (2 * num_sms - 1)
  std::uint64_t block = std::min<std::uint64_t>(
      {opt.threads_per_block, (threads - 1) / (2 * std::uint64_t{config.num_sms} - 1),
       largest_staged_block(opt.threads_per_block, chunk, config.shared_mem_bytes / 2,
                            symbol_bits)});
  block = block / 32 * 32;
  return {chunk, static_cast<std::uint32_t>(std::max<std::uint64_t>(32, block))};
}

namespace {

/// Rejects geometry no batch of the run could launch: an explicit chunk
/// that does not exceed the overlap, a chunk too wide to stage even a
/// 32-thread block (with the 6-bit table and exchange, since any slice may
/// pack to 6 bits), or a per-thread scan bound S (chunk + overlap) too large
/// for the 32-bit match record state * S + offset of a DFA with `states`
/// states. Checked once per run, before anything is staged. The chunk never
/// narrows as the slice grows and does not depend on the width, so the
/// largest slice's chunk is the widest any batch runs.
Status check_geometry(const PipelineOptions& opt, const gpusim::GpuConfig& config,
                      std::uint32_t max_pattern_length, std::uint32_t overlap,
                      std::uint64_t slice_cap, std::uint64_t states) {
  const std::uint32_t widest =
      resolve_geometry(opt, config, overlap, slice_cap, 8).chunk_bytes;
  if (overlap >= widest)
    return Status::invalid_argument(
        "chunk_bytes " + std::to_string(widest) +
        " too small for max pattern length " + std::to_string(max_pattern_length));
  if (largest_staged_block(opt.threads_per_block, widest, config.shared_mem_bytes, 6) == 0)
    return Status::capacity_exceeded(
        "staged block for chunk_bytes " + std::to_string(widest) +
        " exceeds shared memory even at 32 threads/block");
  const std::uint32_t scan_bound = widest + overlap;
  if (!kernels::MatchBuffer::encodable(states, scan_bound))
    return Status::capacity_exceeded(
        std::to_string(states) + " DFA states x per-thread scan bound " +
        std::to_string(scan_bound) + " B exceed the 2^32 codes of a match record");
  return Status::ok();
}

/// Timed-mode timing reuse: batches are homogeneous by construction, so one
/// simulated launch per distinct (slice length, symbol bits) covers the rest.
/// Each width runs its own staging loop and 6-bit batches their own block
/// size, so batches of one length but different widths never share a timing.
using TimingKey = std::pair<std::uint64_t, std::uint32_t>;
struct CachedTiming {
  double kernel_seconds = 0;
  std::uint64_t output_bytes = 0;
};

constexpr double kSimNs = 1e9;  ///< simulated seconds -> nanoseconds

/// Publishes the run into the registry: the summed kernel counters under
/// gpusim.*, run aggregates under pipeline.*, per-batch and per-op
/// distributions under pipeline.batch.* / pipeline.op.*.
void publish_run(const PipelineResult& result, telemetry::MetricsRegistry& reg,
                 const std::string& prefix) {
  gpusim::publish(result.metrics, reg, prefix + "gpusim");

  // Series names carry the caller's prefix so N devices publishing into one
  // registry stay apart ("device.3.pipeline.runs" vs "pipeline.runs").
  const auto name = [&](const char* series) { return prefix + series; };
  const PipelineStats& s = result.stats;
  reg.counter(name("pipeline.runs")).add(1);
  reg.counter(name("pipeline.batches")).add(s.batches);
  reg.counter(name("pipeline.input_bytes")).add(s.input_bytes);
  reg.counter(name("pipeline.staged_bytes")).add(s.staged_bytes);
  reg.counter(name("pipeline.output_bytes")).add(s.output_bytes);
  reg.counter(name("pipeline.matches_reported")).add(result.total_reported);
  reg.gauge(name("pipeline.overlap_ratio")).set(s.overlap_ratio);
  reg.gauge(name("pipeline.throughput_gbps")).set(s.throughput_gbps());
  reg.gauge(name("pipeline.makespan_seconds")).set(s.makespan_seconds);
  reg.gauge(name("pipeline.copy_busy_seconds")).set(s.copy_busy_seconds);
  reg.gauge(name("pipeline.h2d_busy_seconds")).set(s.h2d_busy_seconds);
  reg.gauge(name("pipeline.d2h_busy_seconds")).set(s.d2h_busy_seconds);
  reg.gauge(name("pipeline.compute_busy_seconds")).set(s.compute_busy_seconds);
  reg.gauge(name("pipeline.overlap_seconds")).set(s.overlap_seconds);
  reg.gauge(name("pipeline.critical_h2d_seconds")).set(s.critical_h2d_seconds);
  reg.gauge(name("pipeline.critical_kernel_seconds")).set(s.critical_kernel_seconds);
  reg.gauge(name("pipeline.critical_d2h_seconds")).set(s.critical_d2h_seconds);
  reg.gauge(name("pipeline.max_queue_depth")).set_max(s.max_queue_depth);
  reg.gauge(name("pipeline.effective_batch_bytes")).set(
      static_cast<double>(s.effective_batch_bytes));

  telemetry::Histogram& latency = reg.histogram(name("pipeline.batch.latency_ns"));
  telemetry::Histogram& depth = reg.histogram(name("pipeline.batch.queue_depth"));
  for (const BatchTrace& t : result.batches) {
    latency.observe((t.complete_seconds - t.submit_seconds) * kSimNs);
    depth.observe(t.queue_depth);
  }

  telemetry::Histogram& h2d = reg.histogram(name("pipeline.batch.h2d_ns"));
  telemetry::Histogram& kernel = reg.histogram(name("pipeline.batch.kernel_ns"));
  telemetry::Histogram& d2h = reg.histogram(name("pipeline.batch.d2h_ns"));
  for (const gpusim::StreamOp& op : result.timeline) {
    const double ns = (op.end - op.start) * kSimNs;
    switch (op.kind) {
      case gpusim::StreamOpKind::kH2D: h2d.observe(ns); break;
      case gpusim::StreamOpKind::kKernel: kernel.observe(ns); break;
      case gpusim::StreamOpKind::kD2H: d2h.observe(ns); break;
    }
  }
}

}  // namespace

MatchPipeline::MatchPipeline(const gpusim::GpuConfig& config,
                             gpusim::DeviceMemory& mem,
                             const kernels::DeviceDfa& ddfa, PipelineOptions options,
                             gpusim::HostObserver* host_observer)
    : config_(config), mem_(mem), ddfa_(ddfa), options_(std::move(options)),
      host_observer_(host_observer) {}

void MatchPipeline::TailFit::add(double x, double y) {
  min_x = count == 0 ? x : std::min(min_x, x);
  max_x = std::max(max_x, x);
  count += 1;
  const double dx = x - mean_x;
  mean_x += dx / count;
  mean_y += (y - mean_y) / count;
  m2_x += dx * (x - mean_x);
  c_xy += dx * (y - mean_y);
}

std::optional<double> MatchPipeline::TailFit::slope() const {
  // Batches within 2x of one size fit little but the intercept.
  if (count < 2 || max_x < 2 * min_x || !(m2_x > 0)) return std::nullopt;
  return c_xy / m2_x;
}

std::size_t MatchPipeline::fit_index(std::uint32_t symbol_bits) {
  return symbol_bits == 8 ? 0 : symbol_bits == 6 ? 1 : 2;
}

double MatchPipeline::tail_share(std::uint32_t symbol_bits) const {
  const std::optional<double> slope = tail_fits_[fit_index(symbol_bits)].slope();
  if (!slope || !(config_.pcie_bytes_per_second > 0)) return 1;
  return std::max(0.0, *slope * config_.pcie_bytes_per_second);
}

Result<PipelineResult> MatchPipeline::run(std::string_view text) {
  const PipelineOptions& opt = options_;
  const TelemetryOptions& tel = opt.telemetry;
  if (Status s = opt.validate(); !s) return s;

  PipelineResult result;
  if (text.empty()) return result;

  telemetry::Span run_span(tel.tracer, "pipeline.run");

  const ac::Dfa& dfa = ddfa_.host_dfa();
  const std::uint32_t max_len = ddfa_.max_pattern_length();
  // The device alphabet is the DFA's byte classes (ac/dfa.h):
  // every slice packs and ships from the text mapped once here.
  const std::string class_text = dfa.classes().map(text);
  const std::uint32_t text_bits = kernels::symbol_bits(kernels::symbol_table(class_text));
  const StagingPlan plan =
      resolve_staging(opt, config_, text.size(), text_bits, tail_share(text_bits));
  if (tel.tracer != nullptr) {
    run_span.annotate("batches", std::to_string(plan.batches));
    run_span.annotate("batch_bytes", std::to_string(plan.batch_bytes));
    run_span.annotate("symbol_bits", std::to_string(plan.symbol_bits));
    char share[32];
    std::snprintf(share, sizeof share, "%.3g", plan.tail_share);
    run_span.annotate("tail_share", share);
  }

  const std::uint32_t overlap = max_len > 0 ? max_len - 1 : 0;
  // Largest device slice: owned bytes plus the overlap carry.
  const std::uint64_t slice_cap =
      std::min<std::uint64_t>(plan.batch_bytes, text.size()) + overlap;
  if (Status s = check_geometry(opt, config_, max_len, overlap, slice_cap,
                                ddfa_.state_count());
      !s)
    return s;

  try {
    gpusim::StreamSim sim(config_, mem_);
    sim.set_host_observer(host_observer_);
    for (std::uint32_t s = 0; s < opt.streams; ++s) sim.create_stream();

    // One upload buffer per stream, allocated below batch_mark so per-batch
    // recycling never frees it. Batch b stages into its stream's buffer
    // (b mod streams), whose last reader, batch b - streams's kernel, sits
    // earlier on the same stream, so stream order alone keeps each H2D off a
    // slice still being scanned. Buffers carry 8 pad bytes (word-granular
    // staging loads never run off the slice), and a run of fewer batches
    // than streams allocates one per batch: the rest would never be written,
    // yet would push the kernels' buffers onto fresh device pages. The
    // kernel launches allocate the output buffers.
    const std::size_t outer_mark = mem_.mark();
    std::vector<gpusim::DevAddr> upload(
        std::min<std::uint64_t>(opt.streams, plan.batches));
    for (gpusim::DevAddr& buffer : upload) buffer = mem_.alloc(slice_cap + 8);
    const std::size_t batch_mark = mem_.mark();

    std::vector<double> completion;  // per batch: D2H end on the timeline
    completion.reserve(plan.batches);
    std::map<TimingKey, CachedTiming> timing_cache;
    Samples latencies;

    // Software-pipelined issue order: each batch's D2H is held back one
    // iteration and enqueued after the NEXT batch's H2D + kernel. On a
    // single copy queue this kept h2d(b+1) from queueing behind a d2h(b)
    // that waits on kernel(b); with the dedicated readback queue it moves no
    // start time, but it fixes the op order every timeline and trace show.
    struct PendingD2H {
      BatchTrace trace;
      gpusim::StreamId stream = 0;
    };
    std::optional<PendingD2H> pending;
    const auto flush_pending = [&]() {
      if (!pending) return;
      BatchTrace& t = pending->trace;
      const std::uint64_t d2h_id = sim.charge_d2h(
          pending->stream, t.output_bytes, "d2h b" + std::to_string(t.index));
      t.complete_seconds = sim.op_end(d2h_id);
      if (tel.recorder != nullptr)
        tel.recorder->record(telemetry::FlightEventKind::kBatchRetire,
                             tel.shard, t.index, t.output_bytes);
      completion.push_back(t.complete_seconds);
      t.queue_depth = 1;
      for (std::uint64_t j = 0; j < t.index; ++j)
        if (completion[j] > t.submit_seconds) ++t.queue_depth;
      latencies.add(t.complete_seconds - t.submit_seconds);

      result.stats.staged_bytes += t.staged_bytes;
      result.stats.output_bytes += t.output_bytes;
      result.stats.max_queue_depth =
          std::max(result.stats.max_queue_depth, t.queue_depth);
      result.batches.push_back(t);
      pending.reset();
    };

    for (std::uint64_t b = 0; b < plan.batches; ++b) {
      const std::uint64_t base = b * plan.batch_bytes;
      const std::uint64_t owned =
          std::min<std::uint64_t>(plan.batch_bytes, text.size() - base);
      const std::uint64_t slice = std::min<std::uint64_t>(owned + overlap, text.size() - base);
      const gpusim::StreamId stream = static_cast<gpusim::StreamId>(b % opt.streams);

      ACGPU_TRACE_SPAN(tel.tracer, "pipeline.batch");
      // A slice, overlap carry included, of at most 4 distinct classes
      // ships at 2 bits per symbol, one of at most 64 at 6 bits, and any
      // other as bytes; the kernel's staging unpacks the codes.
      const std::string_view slice_text =
          std::string_view(class_text).substr(base, slice);
      const std::optional<kernels::SymbolTable> symbols =
          kernels::symbol_table(slice_text);
      BatchTrace trace;
      trace.index = b;
      trace.stream = stream;
      trace.owned_bytes = owned;
      trace.symbol_bits = kernels::symbol_bits(symbols);
      trace.staged_bytes = kernels::packed_size(slice, trace.symbol_bits);
      const BatchGeometry g = resolve_geometry(opt, config_, overlap, slice, trace.symbol_bits);
      trace.chunk_bytes = g.chunk_bytes;
      trace.threads_per_block = g.threads_per_block;

      if (tel.recorder != nullptr)
        tel.recorder->record(telemetry::FlightEventKind::kBatchIssue, tel.shard,
                             b, trace.staged_bytes);
      const gpusim::DevAddr dst = upload[stream];

      const void* payload = slice_text.data();
      if (symbols) {
        if (pack_buffer_.size() < trace.staged_bytes) pack_buffer_.resize(trace.staged_bytes);
        kernels::pack_text(slice_text, *symbols, pack_buffer_.data());
        payload = pack_buffer_.data();
      }
      const std::uint64_t h2d_id = sim.memcpy_h2d(stream, dst, payload, trace.staged_bytes,
                                                  "h2d b" + std::to_string(b));
      mem_.fill(dst + trace.staged_bytes, 0, 8);
      trace.submit_seconds = sim.timeline()[h2d_id].start;
      trace.issue_index = h2d_id;

      // One kernel launch over the slice. Timed runs may reuse the simulated
      // duration of an earlier batch with the same slice length and width.
      const bool reuse = opt.mode == gpusim::SimMode::Timed;
      const TimingKey key{slice, trace.symbol_bits};
      const auto cached = reuse ? timing_cache.find(key) : timing_cache.end();
      if (cached != timing_cache.end()) {
        const std::uint64_t kid =
            sim.charge_kernel(stream, cached->second.kernel_seconds,
                              "kernel b" + std::to_string(b) + " (reused timing)");
        sim.annotate(kid, dst, trace.staged_bytes, /*is_write=*/false);
        trace.kernel_seconds = cached->second.kernel_seconds;
        trace.output_bytes = cached->second.output_bytes;
      } else {
        // Recycle the previous batch's match buffer — unless an access
        // observer is attached, whose cross-launch global-write shadow would
        // misread address reuse as a race.
        ACGPU_TRACE_SPAN(tel.tracer, "kernel.simulate");
        if (opt.observer == nullptr) mem_.release(batch_mark);

        gpusim::LaunchOptions sim_opt;
        sim_opt.mode = opt.mode;
        sim_opt.observer = opt.observer;

        kernels::AcLaunchSpec spec;
        spec.chunk_bytes = g.chunk_bytes;
        spec.threads_per_block = g.threads_per_block;
        spec.match_capacity = opt.match_capacity;
        spec.sim = sim_opt;
        kernels::AcLaunchOutcome out =
            kernels::run_ac_kernel_stream(sim, stream, ddfa_, dst, slice, spec, symbols,
                                          "kernel b" + std::to_string(b));
        trace.kernel_seconds = out.sim.seconds;
        result.overflowed |= out.matches.overflowed;
        result.metrics += out.sim.metrics;
        if (opt.mode == gpusim::SimMode::Functional)
          for (const ac::Match& m : out.matches.matches) {
            const std::uint64_t start = m.end + 1 - dfa.pattern_length(m.pattern);
            if (start < owned) result.matches.push_back(ac::Match{base + m.end, m.pattern});
          }
        // The stream runner enqueues exactly one kernel op — annotate it as
        // the last reader of the staged slice for the hostcheck auditor.
        sim.annotate(sim.timeline().back().id, dst, trace.staged_bytes, /*is_write=*/false);
        result.total_reported += out.matches.total_reported;
        // D2H payload: the per-thread u16 counts plus the stored one-word
        // records (extrapolated in Timed mode), charged as if packed.
        trace.output_bytes =
            out.threads * 2 +
            static_cast<std::uint64_t>(static_cast<double>(out.matches.stored_records) *
                                       out.sim.scale()) *
                4;
        if (reuse) timing_cache[key] = {trace.kernel_seconds, trace.output_bytes};
      }

      tail_fits_[fit_index(trace.symbol_bits)].add(
          static_cast<double>(trace.staged_bytes),
          trace.kernel_seconds +
              static_cast<double>(trace.output_bytes) / config_.pcie_bytes_per_second);

      // Issue the PREVIOUS batch's D2H now that this batch's H2D and kernel
      // are in the copy/compute queues, then hold this one back in turn.
      flush_pending();
      pending = PendingD2H{trace, stream};
    }
    flush_pending();

    const gpusim::OverlapStats ov = sim.overlap();
    result.stats.batches = plan.batches;
    result.stats.input_bytes = text.size();
    result.stats.makespan_seconds = ov.makespan;
    result.stats.copy_busy_seconds = ov.copy_busy;
    result.stats.h2d_busy_seconds = ov.h2d_busy;
    result.stats.d2h_busy_seconds = ov.d2h_busy;
    result.stats.compute_busy_seconds = ov.compute_busy;
    result.stats.overlap_seconds = ov.overlapped;
    result.stats.overlap_ratio = ov.overlap_ratio();
    const gpusim::CriticalPath critical = sim.critical_path();
    result.stats.critical_h2d_seconds = critical.h2d;
    result.stats.critical_kernel_seconds = critical.kernel;
    result.stats.critical_d2h_seconds = critical.d2h;
    result.stats.effective_batch_bytes = plan.batch_bytes;
    result.stats.latency_p50_seconds = latencies.percentile(50);
    result.stats.latency_p90_seconds = latencies.percentile(90);
    result.stats.latency_p99_seconds = latencies.percentile(99);
    result.timeline = sim.timeline();

    if (opt.observer == nullptr) mem_.release(outer_mark);
  } catch (const std::exception& e) {
    return Status::from_exception(e);
  }

  std::sort(result.matches.begin(), result.matches.end());
  // Deterministic export order: flush order equals issue order today, but
  // consumers (trace export, reports) must not depend on that accident.
  std::sort(result.batches.begin(), result.batches.end(),
            [](const BatchTrace& a, const BatchTrace& b) {
              if (a.issue_index != b.issue_index) return a.issue_index < b.issue_index;
              return a.index < b.index;
            });
  if (tel.tracer != nullptr) {
    const PipelineStats& st = result.stats;
    for (const auto& [key, seconds] :
         {std::pair{"critical_h2d_seconds", st.critical_h2d_seconds},
          std::pair{"critical_kernel_seconds", st.critical_kernel_seconds},
          std::pair{"critical_d2h_seconds", st.critical_d2h_seconds}}) {
      char value[32];
      std::snprintf(value, sizeof value, "%.6g", seconds);
      run_span.annotate(key, value);
    }
  }
  if (tel.metrics != nullptr) publish_run(result, *tel.metrics, tel.metrics_prefix);
  return result;
}

}  // namespace acgpu::pipeline
