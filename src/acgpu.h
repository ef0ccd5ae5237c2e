// Umbrella header for the acgpu library.
//
// acgpu reproduces "High Throughput Parallel Implementation of Aho-Corasick
// Algorithm on a GPU" (Tran, Lee, Hong, Choi — IPPS 2013): a complete
// Aho-Corasick toolkit (ac/), a discrete-event SIMT GPU simulator standing
// in for the paper's GTX 285 (gpusim/), the paper's two matching kernels and
// the PFAC ablation kernel (kernels/), the batched multi-stream matching
// pipeline and the acgpu::Engine facade over the AC DFA (pipeline/), the adaptive backend dispatcher with
// its cost model (dispatch/), the streaming session service for stateful
// cross-chunk scanning (serve/), the multi-device scatter/gather router tier
// sharding sessions and bulk scans across N simulated devices (cluster/), a
// Core2-class serial timing model (cpumodel/), workload generators
// (workload/), the evaluation harness that regenerates the paper's figures
// (harness/), and the cross-matcher differential conformance oracle
// (oracle/).
#pragma once

// ---------------------------------------------------------------------------
// Public API. acgpu::Engine (pipeline/engine.h) is the supported way to use
// the library: compile patterns once, scan arbitrarily large inputs through
// the batched multi-stream pipeline. The ac/ toolkit is public for host-side
// matching and automaton inspection.
// ---------------------------------------------------------------------------
#include "ac/automaton.h"
#include "ac/chunking.h"
#include "ac/compressed_stt.h"
#include "ac/dfa.h"
#include "ac/match.h"
#include "ac/naive_matcher.h"
#include "ac/nfa_matcher.h"
#include "ac/parallel_matcher.h"
#include "ac/pattern_set.h"
#include "ac/pfac.h"
#include "ac/serial_matcher.h"
#include "ac/stream_matcher.h"
#include "ac/stt_layout.h"
#include "ac/trie.h"
#include "cluster/merge.h"
#include "cluster/router.h"
#include "dispatch/cost_model.h"
#include "dispatch/dispatcher.h"
#include "dispatch/signature.h"
#include "pipeline/device.h"
#include "pipeline/engine.h"
#include "pipeline/pipeline.h"
#include "pipeline/telemetry_export.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/session_manager.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/logger.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/regression.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"
#include "util/arg_parser.h"
#include "util/byte_units.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/set_assoc_cache.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

// ---------------------------------------------------------------------------
// Internal API. Everything below is the machinery behind the facade —
// exposed for the harness, benches, tests, and ablation studies, but not a
// stability surface. In particular the direct kernel-launch entry points
// (kernels::run_ac_kernel and its _stream variant, and
// kernels::run_pfac_kernel, which only the PFAC ablation drives) bypass the
// pipeline's batching, stitching, and device-memory management: new code
// should go through acgpu::Engine instead (see the migration notes in
// README.md).
// ---------------------------------------------------------------------------
#include "cpumodel/serial_timing.h"
#include "gpusim/config.h"
#include "gpusim/coalescer.h"
#include "gpusim/device_memory.h"
#include "gpusim/launcher.h"
#include "gpusim/metrics.h"
#include "gpusim/scheduler.h"
#include "gpusim/shared_memory.h"
#include "gpusim/stream.h"
#include "gpusim/texture.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/report.h"
#include "harness/result_cache.h"
#include "kernels/ac_kernel.h"      // internal: use acgpu::Engine
#include "kernels/compressed_kernel.h"  // internal: use acgpu::Engine
#include "kernels/device_dfa.h"
#include "kernels/match_output.h"
#include "kernels/pfac_kernel.h"    // internal: PFAC ablation only
#include "kernels/store_scheme.h"
#include "oracle/conformance.h"
#include "oracle/differential.h"
#include "oracle/matcher.h"
#include "oracle/minimize.h"
#include "oracle/workload_gen.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"
#include "workload/seed_text.h"
#include "workload/snort_rules.h"
