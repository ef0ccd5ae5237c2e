#include "layers.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.h"

namespace e2e {

using acgpu::telemetry::JsonValue;
using acgpu::telemetry::MetricsSnapshot;

namespace {

std::string shard_series(std::uint32_t shard, const std::string& series) {
  return "device." + std::to_string(shard) + "." + series;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Reads per-shard series (device.<k>.<series>) out of two snapshots.
class Shards {
 public:
  explicit Shards(const TracedPass& pass) : pass_(pass) {}

  /// Σ over shards of a counter's (or gauge's) growth during the pass.
  double delta(const std::string& series) const {
    return sum(pass_.after, series) - sum(pass_.before, series);
  }
  /// Σ over shards of a histogram's sample total grown during the pass.
  double histogram_delta(const std::string& series) const {
    return histogram_total(pass_.after, series) -
           histogram_total(pass_.before, series);
  }
  /// The largest shard's value at the end of the pass.
  double max(const std::string& series) const {
    double out = 0;
    for (std::uint32_t k = 0; k < pass_.shards; ++k)
      out = std::max(out, value(pass_.after, shard_series(k, series)));
    return out;
  }

 private:
  static double value(const MetricsSnapshot& snap, const std::string& name) {
    return snap.value(name).value_or(0.0);
  }
  double sum(const MetricsSnapshot& snap, const std::string& series) const {
    double out = 0;
    for (std::uint32_t k = 0; k < pass_.shards; ++k)
      out += value(snap, shard_series(k, series));
    return out;
  }
  double histogram_total(const MetricsSnapshot& snap,
                         const std::string& series) const {
    double out = 0;
    for (std::uint32_t k = 0; k < pass_.shards; ++k) {
      const std::string name = shard_series(k, series);
      out += value(snap, name + ".count") * value(snap, name + ".mean");
    }
    return out;
  }

  const TracedPass& pass_;
};

std::string arg(const JsonValue& event, std::string_view key) {
  const JsonValue* args = event.find("args");
  const JsonValue* v = args != nullptr ? args->find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->string() : std::string();
}

std::string text(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.find(key);
  return v != nullptr && v->is_string() ? v->string() : std::string();
}

std::uint64_t number(const JsonValue& event, std::string_view key) {
  return static_cast<std::uint64_t>(event.number_at(key).value_or(0));
}

/// Trace-event microseconds back to nanoseconds.
std::uint64_t ns(const JsonValue& event, std::string_view key) {
  return static_cast<std::uint64_t>(
      std::llround(event.number_at(key).value_or(0) * 1e3));
}

const JsonValue::Array& events(const JsonValue& fleet) {
  const JsonValue* list = fleet.find("traceEvents");
  ACGPU_CHECK(list != nullptr && list->is_array(),
              "fleet trace has no traceEvents array");
  return list->array();
}

}  // namespace

PipelineProbe::PipelineProbe(acgpu::telemetry::MetricsRegistry& registry,
                             std::uint32_t shards) {
  for (std::uint32_t k = 0; k < shards; ++k) {
    Shard s;
    s.runs = &registry.counter(shard_series(k, "pipeline.runs"));
    s.makespan = &registry.gauge(shard_series(k, "pipeline.makespan_seconds"));
    s.seen = s.runs->value();
    shards_.push_back(s);
  }
}

void PipelineProbe::after_call() {
  for (Shard& s : shards_) {
    const std::uint64_t runs = s.runs->value();
    ACGPU_CHECK(runs - s.seen <= 1,
                "one Router call ran " << runs - s.seen
                    << " pipelines on one shard; their makespans cannot be "
                       "told apart");
    if (runs != s.seen) makespan_seconds_ += s.makespan->value();
    s.seen = runs;
  }
}

JsonValue fleet_trace(const acgpu::cluster::Router& router) {
  std::ostringstream out;
  const acgpu::Status s = router.write_trace(out);
  ACGPU_CHECK(s.is_ok(), s.to_string());
  std::optional<JsonValue> parsed = acgpu::telemetry::parse_json(out.str());
  ACGPU_CHECK(parsed.has_value(), "Router::write_trace wrote invalid JSON");
  return std::move(*parsed);
}

SpanTotals span_totals(const JsonValue& fleet) {
  // Span ids are unique within one tracer, i.e. within one trace process.
  std::map<std::uint64_t, std::string> process;
  std::map<std::pair<std::uint64_t, std::string>, std::string> span_name;
  for (const JsonValue& e : events(fleet)) {
    const std::string ph = text(e, "ph");
    if (ph == "M" && text(e, "name") == "process_name")
      process[number(e, "pid")] = arg(e, "name");
    else if (ph == "X")
      span_name[{number(e, "pid"), arg(e, "span_id")}] = text(e, "name");
  }

  SpanTotals t;
  for (const JsonValue& e : events(fleet)) {
    if (text(e, "ph") != "X") continue;
    const std::uint64_t pid = number(e, "pid");
    const std::string name = text(e, "name");
    const double seconds = static_cast<double>(ns(e, "dur")) * 1e-9;
    if (process[pid] == "cluster router") {
      if (name == "router.scan" || name == "router.feed")
        t.router_calls += seconds;
      continue;
    }
    if (name == "serve.superbatch") {
      t.superbatch += seconds;
    } else if (name == "kernel.simulate") {
      t.kernel_simulate += seconds;
    } else if (name == "engine.scan") {
      const auto parent = span_name.find({pid, arg(e, "parent_span_id")});
      if (parent != span_name.end() && parent->second == "serve.superbatch")
        t.engine_scan_serve += seconds;
      else
        t.engine_scan_bulk += seconds;
    }
  }
  return t;
}

MetricList layer_metrics(const TracedPass& p) {
  const Shards shards(p);
  const SpanTotals& a = p.spans_after;
  const SpanTotals& b = p.spans_before;
  const double superbatch = a.superbatch - b.superbatch;
  const double scan_serve = a.engine_scan_serve - b.engine_scan_serve;
  const double scan_bulk = a.engine_scan_bulk - b.engine_scan_bulk;
  const double simulate = a.kernel_simulate - b.kernel_simulate;
  const double router_spans = a.router_calls - b.router_calls;
  const double r = p.router_call_seconds;

  const double h2d = shards.histogram_delta("pipeline.batch.h2d_ns") * 1e-9;
  const double kernel =
      shards.histogram_delta("pipeline.batch.kernel_ns") * 1e-9;
  const double d2h = shards.histogram_delta("pipeline.batch.d2h_ns") * 1e-9;
  const double makespan = p.pipeline_makespan_seconds;
  const double shares[] = {ratio(h2d, makespan), ratio(kernel, makespan),
                           ratio(d2h, makespan)};
  const double bound = static_cast<double>(
      std::max_element(std::begin(shares), std::end(shares)) -
      std::begin(shares));
  const double staged = shards.delta("pipeline.staged_bytes");
  const double stalls = shards.delta("gpusim.stall.global_cycles") +
                        shards.delta("gpusim.stall.shared_cycles") +
                        shards.delta("gpusim.stall.tex_cycles") +
                        shards.delta("gpusim.stall.barrier_cycles");
  const auto decisions = [&](acgpu::dispatch::Backend backend) {
    const int i = static_cast<int>(backend);
    return static_cast<double>(p.dispatch_after.decisions[i] -
                               p.dispatch_before.decisions[i]);
  };

  return {
      {"ac.build_dfa_ms", p.setup.build_dfa * 1e3, "ms"},
      {"ac.dfa_states", static_cast<double>(p.dfa_states), "count"},
      {"ac.stt_mb", static_cast<double>(p.stt_bytes) / 1e6, "MB"},

      {"cluster.create_ms", p.setup.create * 1e3, "ms"},
      {"cluster.warmup_ms", p.setup.warmup * 1e3, "ms"},
      {"cluster.self_ms", (r - superbatch - scan_bulk) * 1e3, "ms"},
      {"cluster.slab_skew", p.slab_skew, "ratio"},
      {"cluster.fallback_scans", static_cast<double>(p.fallback_scans),
       "count"},

      {"serve.self_ms", (superbatch - scan_serve) * 1e3, "ms"},
      {"serve.feed_p99_us", shards.max("serve.feed.latency_ns.p99") / 1e3,
       "us"},
      {"serve.batches", shards.delta("serve.batches"), "count"},
      {"serve.batch_bytes_p50", shards.max("serve.batch.bytes.p50"), "bytes"},
      {"serve.batch_chunks_mean",
       ratio(shards.histogram_delta("serve.batch.chunks"),
             shards.delta("serve.batch.chunks.count")),
       "count"},
      {"serve.queue_max_depth_chunks",
       shards.max("serve.queue.max_depth_chunks"), "count"},
      {"serve.feeds_rejected", shards.delta("serve.feeds.rejected"), "count"},
      {"serve.host_fallbacks", shards.delta("serve.scan.host_fallbacks"),
       "count"},

      {"dispatch.calibrate_ms", p.setup.calibrate * 1e3, "ms"},
      {"dispatch.decisions_serial",
       decisions(acgpu::dispatch::Backend::kSerialCpu), "count"},
      {"dispatch.decisions_parallel",
       decisions(acgpu::dispatch::Backend::kParallelCpu), "count"},
      {"dispatch.decisions_gpu",
       decisions(acgpu::dispatch::Backend::kGpuPipeline), "count"},
      {"dispatch.mispredictions",
       static_cast<double>(p.dispatch_after.mispredictions -
                           p.dispatch_before.mispredictions),
       "count"},

      {"pipeline.scans", shards.delta("pipeline.runs"), "count"},
      {"pipeline.batches", shards.delta("pipeline.batches"), "count"},
      {"pipeline.h2d_busy_ms", h2d * 1e3, "sim_ms"},
      {"pipeline.kernel_busy_ms", kernel * 1e3, "sim_ms"},
      {"pipeline.d2h_busy_ms", d2h * 1e3, "sim_ms"},
      {"pipeline.h2d_share", shares[0], "ratio"},
      {"pipeline.kernel_share", shares[1], "ratio"},
      {"pipeline.d2h_share", shares[2], "ratio"},
      {"pipeline.bound", bound, "stage"},
      {"pipeline.staged_mb", staged / 1e6, "MB"},
      {"pipeline.output_mb", shards.delta("pipeline.output_bytes") / 1e6,
       "MB"},
      {"pipeline.blocked_ms",
       shards.histogram_delta("pipeline.batch.blocked_ns") / 1e6, "sim_ms"},
      {"pipeline.readback_wait_ms",
       shards.histogram_delta("pipeline.batch.readback_wait_ns") / 1e6,
       "sim_ms"},
      {"pipeline.batch_latency_p99_us",
       shards.max("pipeline.batch.latency_ns.p99") / 1e3, "sim_us"},
      {"pipeline.self_ms", (scan_serve + scan_bulk - simulate) * 1e3, "ms"},

      {"gpusim.simulate_ms", simulate * 1e3, "ms"},
      {"gpusim.simulate_mbps", ratio(staged / 1e6, simulate), "MB/s"},
      {"gpusim.warp_instructions",
       shards.delta("gpusim.issue.warp_instructions"), "count"},
      {"gpusim.tex_hit_rate",
       1.0 - ratio(shards.delta("gpusim.tex.misses"),
                   shards.delta("gpusim.tex.lane_fetches")),
       "ratio"},
      {"gpusim.tex_l2_misses", shards.delta("gpusim.tex.l2_misses"), "count"},
      {"gpusim.stall_tex_share",
       ratio(shards.delta("gpusim.stall.tex_cycles"), stalls), "ratio"},
      {"gpusim.shared_max_degree", shards.max("gpusim.shared.max_degree"),
       "count"},
      {"gpusim.global_txn_per_request",
       ratio(shards.delta("gpusim.global.transactions"),
             shards.delta("gpusim.global.requests")),
       "ratio"},

      {"bench.self_frac", 1.0 - ratio(r, p.pass_seconds), "ratio"},
      {"trace.unattributed_frac",
       ratio(r - router_spans - superbatch, r), "ratio"},
      {"trace.overhead_frac", ratio(r, p.untraced_router_call_seconds) - 1.0,
       "ratio"},
  };
}

void write_trace_file(const std::string& path, const JsonValue& fleet,
                      const acgpu::telemetry::Tracer& bench) {
  // Re-emit the fleet trace event by event so the benchmark's spans can join
  // it as one more process under the library's own writer.
  acgpu::telemetry::ChromeTrace out;
  std::map<std::uint64_t, std::uint64_t> pid;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> tid;
  for (const JsonValue& e : events(fleet)) {
    const std::string ph = text(e, "ph");
    const std::uint64_t p = number(e, "pid");
    if (ph == "M" && text(e, "name") == "process_name") {
      pid[p] = out.process(arg(e, "name"));
    } else if (ph == "M" && text(e, "name") == "thread_name") {
      tid[{p, number(e, "tid")}] = out.track(pid.at(p), arg(e, "name"));
    } else if (ph == "X") {
      std::vector<std::pair<std::string, std::string>> args;
      if (const JsonValue* a = e.find("args"); a != nullptr && a->is_object())
        for (const auto& [key, value] : a->object())
          if (value.is_string()) args.emplace_back(key, value.string());
      out.add_slice(pid.at(p), tid.at({p, number(e, "tid")}), text(e, "name"),
                    ns(e, "ts"), ns(e, "dur"), std::move(args));
    } else if (ph == "C") {
      const JsonValue* a = e.find("args");
      out.add_counter(pid.at(p), text(e, "name"), ns(e, "ts"),
                      a != nullptr ? a->number_at("value").value_or(0) : 0);
    }
  }
  out.add_tracer(bench, "bench");
  std::ofstream file(path);
  ACGPU_CHECK(file.good(), "cannot write trace file " << path);
  out.write(file);
  ACGPU_CHECK(file.good(), "failed writing trace file " << path);
}

}  // namespace e2e
