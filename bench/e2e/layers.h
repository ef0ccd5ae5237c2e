// Per-layer breakdown of one traced pass of acgpu_e2e.
//
// Everything here reads what the library already publishes through its
// public sinks (ClusterOptions::metrics and ClusterOptions::trace) plus the
// benchmark's own spans around each Router call; nothing under src/ is
// instrumented for the benchmark. README.md defines each metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "dispatch/dispatcher.h"
#include "telemetry/json.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Host seconds of each set-up phase; their sum is setup_s.
struct SetupTimes {
  double build_dfa = 0;
  double calibrate = 0;
  double create = 0;
  double warmup = 0;
  double total() const { return build_dfa + calibrate + create + warmup; }
};

/// Sums the simulated makespan of every pipeline run. The registry keeps
/// only the last run's makespan per shard, so the benchmark reads it after
/// each Router call; that is exact while one call runs at most one pipeline
/// per shard, which after_call() checks.
class PipelineProbe {
 public:
  PipelineProbe(acgpu::telemetry::MetricsRegistry& registry,
                std::uint32_t shards);
  void after_call();
  double makespan_seconds() const { return makespan_seconds_; }

 private:
  struct Shard {
    acgpu::telemetry::Counter* runs = nullptr;
    acgpu::telemetry::Gauge* makespan = nullptr;
    std::uint64_t seen = 0;
  };
  std::vector<Shard> shards_;
  double makespan_seconds_ = 0;
};

/// Host seconds inside the library's own spans.
struct SpanTotals {
  double router_calls = 0;       ///< router.scan + router.feed
  double superbatch = 0;         ///< serve.superbatch
  double engine_scan_serve = 0;  ///< engine.scan under a superbatch
  double engine_scan_bulk = 0;   ///< engine.scan of a bulk slab
  double kernel_simulate = 0;    ///< kernel.simulate
};

/// The router's fleet trace (Router::write_trace), parsed.
acgpu::telemetry::JsonValue fleet_trace(const acgpu::cluster::Router& router);
SpanTotals span_totals(const acgpu::telemetry::JsonValue& fleet);

/// Everything the benchmark observed around one traced pass.
struct TracedPass {
  SetupTimes setup;
  std::uint32_t dfa_states = 0;
  std::uint64_t stt_bytes = 0;
  std::uint32_t shards = 0;
  acgpu::telemetry::MetricsSnapshot before, after;
  acgpu::dispatch::DispatchStats dispatch_before, dispatch_after;
  SpanTotals spans_before, spans_after;
  double pipeline_makespan_seconds = 0;
  double router_call_seconds = 0;           ///< Σ benchmark spans around Router calls
  double untraced_router_call_seconds = 0;  ///< the same pass, untraced
  double pass_seconds = 0;                  ///< the whole traced pass loop
  double slab_skew = 0;
  std::uint64_t fallback_scans = 0;
};

MetricList layer_metrics(const TracedPass& pass);

/// Writes the fleet trace plus the benchmark's spans as one Perfetto-loadable
/// Chrome trace. Each process keeps its own tracer's time origin.
void write_trace_file(const std::string& path,
                      const acgpu::telemetry::JsonValue& fleet,
                      const acgpu::telemetry::Tracer& bench);

}  // namespace e2e
