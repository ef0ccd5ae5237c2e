// The host-audit harness: drives the production pipeline (and the serve
// layer) under the Recorder across a stream-count matrix, analyses each run
// for happens-before hazards, and checks the matches against the serial
// reference at the same time — a hazard-free run that returns wrong matches
// is still a failed audit.
//
// The stream count is the one knob that changes the host schedule's SHAPE:
// 1 is the serial baseline, 8 deep lane cycling over 8 upload buffers.
// Every configuration must audit CLEAN on every workload: each batch stages
// into its own stream's upload buffer, so stream order is supposed to put
// every H2D after the kernel that last read the buffer by construction, not
// by engine-serialization luck.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hostcheck/analyze.h"
#include "oracle/matcher.h"

namespace acgpu::hostcheck {

/// One point of the audit matrix.
struct HostAuditConfig {
  std::uint32_t streams = 2;
};

/// "s2" — used in reports and --configs.
std::string to_string(const HostAuditConfig& config);

/// The default sweep matrix: streams {1,2,4,8}.
const std::vector<HostAuditConfig>& default_config_matrix();

struct HostAuditSpec {
  /// Owned bytes per pipeline batch — small, so even oracle-sized texts
  /// (0.5–8 KB) split into several batches and recycle upload buffers.
  /// audit_pipeline lowers it to text / (streams + 2) where that is
  /// smaller, so every stream count reuses an upload buffer.
  std::uint64_t batch_bytes = 1024;
  /// Feeder threads for the serve audit (each opens its own session).
  std::uint32_t serve_threads = 2;
  /// Chunks each serve feeder splits the text into.
  std::uint32_t serve_chunks = 7;
};

struct HostAuditOutcome {
  HostAuditReport report;
  bool matches_ok = false;  ///< output equals the serial reference
  std::uint64_t match_count = 0;
};

/// Runs one workload through Engine::scan under the Recorder with the
/// config's stream count and analyses the trace.
HostAuditOutcome audit_pipeline(const oracle::CompiledWorkload& workload,
                                const HostAuditConfig& config,
                                const HostAuditSpec& spec = {});

/// Runs one workload through a background StreamService under the Recorder:
/// `serve_threads` concurrent feeders, each its own session and chunking,
/// then drain/poll. Exercises the tracked serve/scheduler/session-manager
/// mutexes (lock-order pass) on top of the engine's stream trace.
HostAuditOutcome audit_serve(const oracle::CompiledWorkload& workload,
                             const HostAuditSpec& spec = {});

/// Runs one workload through a background cluster::Router under the
/// Recorder: `devices` shards each pumping on its own thread with `streams`
/// pipeline lanes, `serve_threads` concurrent feeders each owning a
/// session, and — when more than one shard is up — a fail-stop device
/// failure injected halfway through the feed, so the audit trace covers the
/// router mutex, every shard's serve/scheduler/manager locks, N devices'
/// stream activity, AND the drain + export/import rebalance path. Matches
/// are still checked per session against the serial reference.
HostAuditOutcome audit_cluster(const oracle::CompiledWorkload& workload,
                               std::uint32_t devices, std::uint32_t streams,
                               const HostAuditSpec& spec = {});

struct HostSweepResult {
  std::string name;  ///< "pipeline <config>" or "serve"
  HostAuditReport report;  ///< merged across all audited workloads
  std::uint64_t workloads = 0;
  std::uint64_t mismatches = 0;  ///< workloads whose matches diverged
};

/// Conformance workloads under audit: generates `iterations` oracle
/// workloads from `seed` and audits every config over each of them, plus
/// one serve-layer entry. An empty `configs` list means the default matrix.
std::vector<HostSweepResult> audit_conformance(
    std::uint64_t seed, std::uint64_t iterations,
    const std::vector<HostAuditConfig>& configs = {},
    const HostAuditSpec& spec = {});

}  // namespace acgpu::hostcheck
