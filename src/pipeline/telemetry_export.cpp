#include "pipeline/telemetry_export.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

namespace acgpu::pipeline {
namespace {

std::uint64_t to_ns(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

}  // namespace

void add_scan_to_trace(telemetry::ChromeTrace& trace, const PipelineResult& result,
                       std::string_view process_name) {
  const std::uint64_t pid = trace.process(process_name);

  // Register stream tracks first (ascending ids), then the engine rows, so
  // the Perfetto layout reads top-down: per-stream program order, then the
  // hardware engines the streams contend for. Readback gets its own row:
  // an upload and a readback run simultaneously on their own queues
  // (full-duplex PCIe), so folding D2H onto the copy row would draw
  // overlapping slices on one track.
  std::uint32_t max_stream = 0;
  for (const gpusim::StreamOp& op : result.timeline)
    max_stream = std::max(max_stream, op.stream);
  std::vector<std::uint64_t> stream_tid(max_stream + 1);
  for (std::uint32_t s = 0; s <= max_stream; ++s)
    stream_tid[s] = trace.track(pid, "stream " + std::to_string(s));
  const std::uint64_t copy_tid = trace.track(pid, "copy engine");
  const std::uint64_t readback_tid = trace.track(pid, "readback engine");
  const std::uint64_t compute_tid = trace.track(pid, "compute engine");

  for (const gpusim::StreamOp& op : result.timeline) {
    // Round both ends, not the duration: back-to-back ops on one track then
    // share a boundary exactly and never overlap by a rounding nanosecond.
    const std::uint64_t start = to_ns(op.start);
    const std::uint64_t dur = to_ns(op.end) - to_ns(op.start);
    std::vector<std::pair<std::string, std::string>> args;
    args.emplace_back("kind", gpusim::to_string(op.kind));
    args.emplace_back("op", std::to_string(op.id));
    if (op.bytes > 0) args.emplace_back("bytes", std::to_string(op.bytes));
    const std::string& name = op.label.empty() ? "(unnamed op)" : op.label;
    trace.add_slice(pid, stream_tid[op.stream], name, start, dur, args);
    const std::uint64_t engine_tid = op.kind == gpusim::StreamOpKind::kKernel
                                         ? compute_tid
                                         : op.kind == gpusim::StreamOpKind::kD2H
                                               ? readback_tid
                                               : copy_tid;
    trace.add_slice(pid, engine_tid, name, start, dur, std::move(args));
  }

  // Counter track: batches in flight (H2D start -> D2H end). BatchTrace is
  // sorted by issue order, but completions interleave — merge the +1/-1
  // edges by time.
  struct Edge {
    std::uint64_t t_ns = 0;
    int delta = 0;
  };
  std::vector<Edge> queue_edges;
  for (const BatchTrace& b : result.batches) {
    queue_edges.push_back({to_ns(b.submit_seconds), +1});
    queue_edges.push_back({to_ns(b.complete_seconds), -1});
  }
  const auto emit_counter = [&](std::vector<Edge> edges, const char* series) {
    std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
      return a.delta < b.delta;  // close before open at the same instant
    });
    int level = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      level += edges[i].delta;
      // Collapse simultaneous edges into the final level at that time.
      if (i + 1 < edges.size() && edges[i + 1].t_ns == edges[i].t_ns) continue;
      trace.add_counter(pid, series, edges[i].t_ns, level);
    }
  };
  emit_counter(queue_edges, "pipeline.queue_depth");

  // Counter track: engines busy at once (0-2) — the overlap story at a
  // glance; the regions at 2 are exactly PipelineStats::overlap_seconds.
  std::vector<Edge> busy_edges;
  for (const gpusim::StreamOp& op : result.timeline) {
    busy_edges.push_back({to_ns(op.start), +1});
    busy_edges.push_back({to_ns(op.end), -1});
  }
  emit_counter(busy_edges, "device.engines_busy");
}

void write_chrome_trace(const PipelineResult& result,
                        const telemetry::Tracer* tracer, std::ostream& out) {
  telemetry::ChromeTrace trace;
  if (tracer != nullptr) trace.add_tracer(*tracer);
  add_scan_to_trace(trace, result);
  trace.write(out);
}

}  // namespace acgpu::pipeline
