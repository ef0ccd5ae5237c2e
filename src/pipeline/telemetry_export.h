// Chrome-trace export of a pipeline run's simulated timeline.
//
// One Chrome "process" per clock domain: the simulated device gets a track
// per stream (the per-batch H2D/kernel/D2H interleaving — with >= 2 streams
// the copy/compute overlap is visible across tracks), a track per engine
// (the copy engine's and compute engine's serialised schedules), and two
// counter tracks — "pipeline.queue_depth" (in-flight batches, from the
// BatchTrace records) and "device.engines_busy" (0-2, from the engine
// busy intervals). Host-side spans recorded by a Tracer ride along as a
// second process on the wall clock. docs/OBSERVABILITY.md shows how to read
// the result in Perfetto.
#pragma once

#include <iosfwd>
#include <string_view>

#include "pipeline/pipeline.h"
#include "telemetry/trace.h"

namespace acgpu::pipeline {

/// Appends the run's stream/engine tracks and counter tracks to `trace`,
/// under the Chrome process `process_name`. Give each scan its own name
/// ("device scan 0", ...) to stack several runs in one file.
void add_scan_to_trace(telemetry::ChromeTrace& trace, const PipelineResult& result,
                       std::string_view process_name = "acgpu simulated device");

/// One-call export: device tracks for `result`, host spans from `tracer`
/// when non-null, written as Chrome trace-event JSON.
void write_chrome_trace(const PipelineResult& result,
                        const telemetry::Tracer* tracer, std::ostream& out);

}  // namespace acgpu::pipeline
