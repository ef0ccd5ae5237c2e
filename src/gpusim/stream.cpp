#include "gpusim/stream.h"

#include <algorithm>

#include "util/error.h"

namespace acgpu::gpusim {

const char* to_string(StreamOpKind kind) {
  switch (kind) {
    case StreamOpKind::kH2D: return "h2d";
    case StreamOpKind::kD2H: return "d2h";
    case StreamOpKind::kKernel: return "kernel";
  }
  return "?";
}

StreamSim::StreamSim(const GpuConfig& config, DeviceMemory& gmem)
    : cfg_(config), gmem_(gmem) {}

StreamId StreamSim::create_stream() {
  streams_.push_back({});
  return static_cast<StreamId>(streams_.size() - 1);
}

StreamSim::StreamState& StreamSim::state(StreamId stream) {
  ACGPU_CHECK(stream < streams_.size(), "unknown stream id " << stream);
  return streams_[stream];
}

double StreamSim::transfer_seconds(std::size_t bytes) const {
  return cfg_.pcie_latency_seconds +
         static_cast<double>(bytes) / cfg_.pcie_bytes_per_second;
}

void StreamSim::set_host_observer(HostObserver* observer) {
  host_observer_ = observer;
  if (host_observer_ != nullptr) sim_id_ = host_observer_->register_sim();
}

void StreamSim::annotate(std::uint64_t op_id, DevAddr addr, std::uint64_t bytes,
                         bool is_write) {
  if (host_observer_ == nullptr) return;
  ACGPU_CHECK(op_id < timeline_.size(), "annotate: unknown op id " << op_id);
  host_observer_->on_access(
      HostAccessRecord{sim_id_, op_id, addr, bytes, is_write});
}

double StreamSim::enqueue(StreamId stream, StreamOpKind kind, double duration,
                          std::uint64_t bytes, std::string label) {
  StreamState& s = state(stream);
  // A D2H never waits behind an H2D: each direction has its own queue.
  Mark* engine_free = kind == StreamOpKind::kH2D   ? &upload_free_
                      : kind == StreamOpKind::kD2H ? &readback_free_
                                                   : &compute_free_;
  // The op starts when the latest of the three ends; ties keep the stream.
  Mark from = s.ready;
  if (engine_free->at > from.at) from = *engine_free;
  if (s.pending_dep.at > from.at) from = s.pending_dep;
  const double end = from.at + duration;
  const Mark done{end, static_cast<std::uint64_t>(timeline_.size())};
  s.ready = done;
  s.pending_dep = Mark{};
  *engine_free = done;
  timeline_.push_back(StreamOp{done.op, stream, kind, from.at, end, bytes,
                               std::move(label), from.op});
  if (host_observer_ != nullptr) {
    const StreamOp& op = timeline_.back();
    host_observer_->on_op(HostOpRecord{
        sim_id_, op.id, op.stream,
        kind == StreamOpKind::kH2D      ? HostOpKind::kH2D
        : kind == StreamOpKind::kKernel ? HostOpKind::kKernel
                                        : HostOpKind::kD2H,
        op.start, op.end, op.bytes, op.label});
  }
  return end;
}

std::uint64_t StreamSim::memcpy_h2d(StreamId stream, DevAddr dst, const void* src,
                                    std::size_t bytes, std::string label) {
  gmem_.copy_in(dst, src, bytes);
  enqueue(stream, StreamOpKind::kH2D, transfer_seconds(bytes), bytes, std::move(label));
  const std::uint64_t id = timeline_.back().id;
  annotate(id, dst, bytes, /*is_write=*/true);
  return id;
}

std::uint64_t StreamSim::memcpy_d2h(StreamId stream, void* dst, DevAddr src,
                                    std::size_t bytes, std::string label) {
  gmem_.copy_out(dst, src, bytes);
  enqueue(stream, StreamOpKind::kD2H, transfer_seconds(bytes), bytes, std::move(label));
  const std::uint64_t id = timeline_.back().id;
  annotate(id, src, bytes, /*is_write=*/false);
  return id;
}

std::uint64_t StreamSim::charge_d2h(StreamId stream, std::size_t bytes, std::string label) {
  enqueue(stream, StreamOpKind::kD2H, transfer_seconds(bytes), bytes, std::move(label));
  return timeline_.back().id;
}

LaunchResult StreamSim::launch(StreamId stream, const Texture2D* tex,
                               const LaunchDims& dims, KernelFn kernel,
                               const LaunchOptions& options, const Texture2D* tex2,
                               std::string label) {
  LaunchResult result =
      gpusim::launch(cfg_, gmem_, tex, dims, std::move(kernel), options, tex2);
  enqueue(stream, StreamOpKind::kKernel, result.seconds, 0, std::move(label));
  return result;
}

std::uint64_t StreamSim::charge_kernel(StreamId stream, double seconds, std::string label) {
  ACGPU_CHECK(seconds >= 0, "kernel duration must be non-negative");
  enqueue(stream, StreamOpKind::kKernel, seconds, 0, std::move(label));
  return timeline_.back().id;
}

EventId StreamSim::record_event(StreamId stream) {
  events_.push_back(state(stream).ready);
  const auto id = static_cast<EventId>(events_.size() - 1);
  if (host_observer_ != nullptr)
    host_observer_->on_event_record(
        HostEventRecord{sim_id_, id, stream, events_.back().at});
  return id;
}

void StreamSim::wait_event(StreamId stream, EventId event) {
  StreamState& s = state(stream);
  if (event_seconds(event) > s.pending_dep.at) s.pending_dep = events_[event];
  if (host_observer_ != nullptr)
    host_observer_->on_wait_event(HostWaitEventRecord{sim_id_, stream, event});
}

double StreamSim::event_seconds(EventId event) const {
  ACGPU_CHECK(event < events_.size(), "unknown event id " << event);
  return events_[event].at;
}

double StreamSim::stream_ready(StreamId stream) const {
  ACGPU_CHECK(stream < streams_.size(), "unknown stream id " << stream);
  return streams_[stream].ready.at;
}

double StreamSim::op_end(std::uint64_t op_id) const {
  ACGPU_CHECK(op_id < timeline_.size(), "unknown op id " << op_id);
  return timeline_[op_id].end;
}

double StreamSim::synchronize() const {
  double latest = 0;
  for (const StreamState& s : streams_) latest = std::max(latest, s.ready.at);
  return latest;
}

namespace {

/// Total length of the union of [start, end) intervals.
double merged_busy(std::vector<std::pair<double, double>>& spans) {
  if (spans.empty()) return 0;
  std::sort(spans.begin(), spans.end());
  double busy = 0, lo = spans.front().first, hi = spans.front().second;
  for (const auto& [s, e] : spans) {
    if (s > hi) {
      busy += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  return busy + (hi - lo);
}

}  // namespace

OverlapStats StreamSim::overlap() const {
  OverlapStats stats;
  std::vector<std::pair<double, double>> copy, compute, h2d, d2h;
  for (const StreamOp& op : timeline_) {
    if (op.kind == StreamOpKind::kKernel) {
      compute.emplace_back(op.start, op.end);
    } else {
      copy.emplace_back(op.start, op.end);
      (op.kind == StreamOpKind::kH2D ? h2d : d2h).emplace_back(op.start, op.end);
    }
    stats.makespan = std::max(stats.makespan, op.end);
  }
  stats.copy_busy = merged_busy(copy);
  stats.h2d_busy = merged_busy(h2d);
  stats.d2h_busy = merged_busy(d2h);
  stats.compute_busy = merged_busy(compute);
  // Overlap = |copy ∪ compute| subtracted from the sum of the two unions.
  std::vector<std::pair<double, double>> all;
  all.reserve(copy.size() + compute.size());
  all.insert(all.end(), copy.begin(), copy.end());
  all.insert(all.end(), compute.begin(), compute.end());
  stats.overlapped = stats.copy_busy + stats.compute_busy - merged_busy(all);
  return stats;
}

CriticalPath StreamSim::critical_path() const {
  CriticalPath path;
  std::uint64_t op = StreamOp::kNoOp;
  for (const StreamOp& o : timeline_)
    if (op == StreamOp::kNoOp || o.end > timeline_[op].end) op = o.id;
  for (; op != StreamOp::kNoOp; op = timeline_[op].bound_by) {
    const StreamOp& o = timeline_[op];
    const double seconds = o.end - o.start;
    switch (o.kind) {
      case StreamOpKind::kH2D: path.h2d += seconds; break;
      case StreamOpKind::kKernel: path.kernel += seconds; break;
      case StreamOpKind::kD2H: path.d2h += seconds; break;
    }
  }
  return path;
}

}  // namespace acgpu::gpusim
