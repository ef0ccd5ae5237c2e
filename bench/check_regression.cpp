// check_regression — the telemetry perf-regression gate.
//
// Runs the canonical pipeline workload with the metrics registry attached,
// snapshots it, and compares the snapshot against a checked-in baseline of
// named bounds (bench/baselines/telemetry_baseline.json). The baseline
// protects the three load-bearing numbers of the reproduction:
//
//   pipeline.overlap_ratio     the multi-stream copy/compute overlap win
//   gpusim.shared.max_degree   the diagonal scheme's bank-conflict-free claim
//   gpusim.tex.hit_rate        the texture-cache locality the kernels rely on
//
// Exit status: 0 when every check passes, 1 on any violation (missing series
// included), 2 on bad usage / IO. CI runs it at 64 MB; the ctest entries run
// the same binary at 8 MB — the baseline bounds hold at both regimes, and a
// deliberately degraded --streams 1 run is checked to FAIL (WILL_FAIL) so
// the gate itself is known to bite.
//
// Updating the baseline after an intentional perf change:
//   build/bench/check_regression --write-baseline bench/baselines/telemetry_baseline.json
// re-bands the checks that file already names around the current run, each
// keeping its shape (exact pins stay exact, zero bounds stay 0), and
// rewrites it (see docs/OBSERVABILITY.md). The baseline file is the only
// list of gated names: adding a check is adding it to the file.
//
// --mode serve swaps the workload for the streaming session service driver
// (run_serve_workload below) and gates the serve.* counters against
// bench/baselines/serve_baseline.json: a deterministic single-threaded
// replay of 48 seeded streams through a 32-session / 8-chunk-queue service,
// so evictions, kOverloaded rejections, and superbatch counts are exact.
//
// --mode latency is the latency-under-load gate: a fixed chunk trace is
// replayed through the serve Scheduler into superbatches, each superbatch is
// scanned through the Engine in Timed mode, and completions are chained
// through a deterministic queueing model (arrival i at i * interval;
// C_i = max(A_i, C_{i-1}) + makespan_i; latency = C_i - A_i). The p50/p99 of
// that latency distribution are pinned in bench/baselines/
// latency_baseline.json, generated from a streams=2 run — so a throughput
// win that regresses tail latency past the old two-stream behaviour fails
// the gate. A degraded --streams 1 run (no overlap, the pipeline cannot
// absorb arrival bursts, the backlog grows without bound) is checked to FAIL
// (WILL_FAIL) so this gate is also known to bite.
//
// --mode cluster gates the multi-device router tier against
// bench/baselines/cluster_baseline.json: a deterministic session replay
// across 4 shards with a mid-replay device failure pins the rebalance
// counters and per-shard batch counts, and a Timed scatter/gather probe
// pins the 4-device scaling ratio. The degraded --cluster-devices 1 run is
// checked to FAIL (WILL_FAIL).
//
// --mode dispatch gates the adaptive backend dispatcher against
// bench/baselines/dispatch_baseline.json: the ext_dispatch three-family
// sweep (tiny/mid/large scans through one Dispatcher, every number
// deterministic modeled seconds) pins the dispatch.decisions.* routing
// census, zero mispredictions, and the two acceptance ratios — dispatched
// vs best-static per family and dispatched vs best-single-static on the
// mixed sweep. The --dispatch-force worst demo routes every dispatched scan
// to the predicted-slowest backend: the ratios collapse and the decision
// census shifts, so the gate must FAIL (WILL_FAIL), proving it bites.
//
// --mode slo gates the SLO/health monitor tier against
// bench/baselines/slo_baseline.json: a deterministic 16-session replay
// across a 4-device cluster with the serving-default SLO policy pins every
// shard's health.<k>.state at ok, shard 0's windowed error rate and breach
// count at zero, and bands its wall-clock feed p99 (the one non-simulated
// number — banded generously, it exists to catch order-of-magnitude
// regressions). The --slo-overload 0 demo feeds shard 0's sessions past
// their byte quota: half its feed window turns kCapacityExceeded, the shard
// trips unhealthy, and the state/error/breach pins are violated — the gate
// must FAIL (WILL_FAIL), proving the health monitor bites.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "acgpu.h"
#include "harness/dispatch_experiment.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

using namespace acgpu;

namespace {

telemetry::MetricsSnapshot run_workload(const ArgParser& args) {
  const auto size = static_cast<std::uint64_t>(args.get_bytes("size"));
  const std::uint64_t pool_bytes = 4u << 20;
  const std::string corpus =
      workload::make_corpus(size + pool_bytes,
                            static_cast<std::uint64_t>(args.get_int("seed")));
  workload::ExtractConfig ec;
  ec.count = static_cast<std::uint32_t>(args.get_int("patterns"));
  ec.min_length = 6;
  ec.max_length = 16;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(
      {corpus.data() + size, pool_bytes}, ec);

  telemetry::MetricsRegistry registry;
  EngineOptions opt;
  opt.streams = static_cast<std::uint32_t>(args.get_int("streams"));
  opt.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
  opt.mode = gpusim::SimMode::Timed;
  opt.telemetry.metrics = &registry;

  DeviceOptions dopt;
  dopt.memory_bytes = 1u << 30;
  Result<Device> device = Device::create(dopt);
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  Result<Engine> engine = Engine::create(device.value(), patterns, opt);
  ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
  Result<ScanResult> scan =
      engine.value().scan({corpus.data(), size});
  ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
  return registry.snapshot();
}

/// The canonical serve workload: sequentially replay N seeded streams
/// through a service sized so every control path fires deterministically —
/// the session cap is below N (LRU evictions), the queue holds 8 chunks
/// under AdmissionPolicy::kReject (kOverloaded backpressure, answered by
/// pump()), and coalescing packs exactly one queue-full of chunks per
/// superbatch. Single caller thread + Functional sim = reproducible
/// counters. Every session is also verified against its serial reference,
/// so the gate doubles as an end-to-end correctness check.
telemetry::MetricsSnapshot run_serve_workload(const ArgParser& args) {
  const auto sessions =
      static_cast<std::size_t>(args.get_int("serve-sessions"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  constexpr std::size_t kStreamBytes = 4096;
  constexpr std::size_t kChunk = 256;

  telemetry::MetricsRegistry registry;
  serve::ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.engine.telemetry.metrics = &registry;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.max_sessions = 32;
  opt.queue.max_queue_chunks = 8;
  opt.queue.coalesce_bytes = 8 * kChunk;
  opt.admission = serve::AdmissionPolicy::kReject;

  Result<serve::StreamService> service = serve::StreamService::create(
      ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
  ACGPU_CHECK(service.is_ok(), service.status().to_string());
  serve::StreamService& srv = service.value();

  for (std::size_t i = 0; i < sessions; ++i) {
    Rng rng(derive_seed(seed, i));
    std::string stream(kStreamBytes, '\0');
    for (char& c : stream) c = "hershise ab"[rng.next_below(11)];

    const serve::SessionId id = srv.open().value();
    for (std::size_t pos = 0; pos < kStreamBytes; pos += kChunk) {
      for (;;) {
        const Status s =
            srv.feed(id, std::string_view(stream).substr(pos, kChunk));
        if (s.is_ok()) break;
        ACGPU_CHECK(s.code() == StatusCode::kOverloaded, s.to_string());
        ACGPU_CHECK(srv.pump().is_ok(), "pump failed");
      }
    }
    ACGPU_CHECK(srv.drain().is_ok(), "drain failed");
    std::vector<ac::Match> got = srv.poll(id).value();
    ac::normalize_matches(got);
    std::vector<ac::Match> expected = ac::find_all(srv.dfa(), stream);
    ac::normalize_matches(expected);
    ACGPU_CHECK(got == expected,
                "serve session " << id << " diverged from serial reference");
  }
  return registry.snapshot();
}

/// The latency-under-load driver: a fixed chunk trace coalesced by the
/// serve Scheduler into superbatches, each scanned through one Engine in
/// Timed mode. Arrivals are modelled at a fixed interval; completions chain
/// FIFO through the single engine, so when the per-superbatch makespan
/// exceeds the interval the backlog — and with it the tail latency — grows
/// without bound. Everything is seeded and simulated: the percentiles are
/// deterministic.
telemetry::MetricsSnapshot run_latency_workload(const ArgParser& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto batches =
      static_cast<std::uint32_t>(args.get_int("latency-batches"));
  const double interval =
      static_cast<double>(args.get_int("latency-interval-us")) * 1e-6;
  // 4 MB superbatches: large enough that the pipeline's batches amortise
  // the fixed per-transfer PCIe setup cost, the regime the pipeline is
  // built for (a 1 MB superbatch would be pure overhead — 16 transfers of
  // setup against 250 us of payload).
  constexpr std::uint64_t kChunkBytes = 1u << 20;
  constexpr std::uint32_t kChunksPerBatch = 4;
  constexpr std::size_t kSessions = 8;
  const std::uint64_t chunks =
      static_cast<std::uint64_t>(batches) * kChunksPerBatch;
  const std::uint64_t trace_bytes = chunks * kChunkBytes;

  const std::uint64_t pool_bytes = 4u << 20;
  const std::string corpus = workload::make_corpus(trace_bytes + pool_bytes, seed);
  workload::ExtractConfig ec;
  ec.count = static_cast<std::uint32_t>(args.get_int("patterns"));
  ec.min_length = 6;
  ec.max_length = 16;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(
      {corpus.data() + trace_bytes, pool_bytes}, ec);

  telemetry::MetricsRegistry registry;
  EngineOptions opt;
  opt.streams = static_cast<std::uint32_t>(args.get_int("streams"));
  opt.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
  opt.mode = gpusim::SimMode::Timed;
  DeviceOptions dopt;
  dopt.memory_bytes = 1u << 30;
  Result<Device> device = Device::create(dopt);
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  Result<Engine> engine = Engine::create(device.value(), patterns, opt);
  ACGPU_CHECK(engine.is_ok(), engine.status().to_string());

  // Replay the trace through the scheduler exactly as serve would: chunks
  // round-robin across sessions, coalesced FIFO into superbatches. The
  // queue bounds are sized to admit the whole fixed trace — admission
  // backpressure is the serve gate's concern, not this one's.
  serve::SchedulerOptions sopt;
  sopt.coalesce_bytes = kChunksPerBatch * kChunkBytes;
  sopt.max_queue_bytes = trace_bytes + 1;
  sopt.max_queue_chunks = static_cast<std::uint32_t>(chunks) + 1;
  serve::Scheduler sched(sopt);
  std::vector<std::uint64_t> session_offset(kSessions, 0);
  for (std::uint64_t i = 0; i < chunks; ++i) {
    serve::PendingChunk chunk;
    chunk.session = static_cast<serve::SessionId>(i % kSessions);
    chunk.global_base = session_offset[i % kSessions];
    chunk.bytes = corpus.substr(i * kChunkBytes, kChunkBytes);
    session_offset[i % kSessions] += kChunkBytes;
    ACGPU_CHECK(sched.admit(std::move(chunk)).is_ok(), "admit failed");
  }

  telemetry::Histogram& latency = registry.histogram("pipeline.load.latency_ns");
  telemetry::Gauge& backlog = registry.gauge("pipeline.load.max_backlog_seconds");
  double prev_complete = 0;
  double max_backlog = 0;
  std::uint32_t batch_index = 0;
  while (sched.has_work()) {
    const serve::CoalescedBatch batch = sched.take_batch();
    Result<ScanResult> scan = engine.value().scan(batch.text);
    ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
    const double arrival = batch_index * interval;
    const double complete =
        std::max(arrival, prev_complete) + scan.value().stats.makespan_seconds;
    latency.observe((complete - arrival) * 1e9);
    max_backlog = std::max(max_backlog, prev_complete - arrival);
    prev_complete = complete;
    ++batch_index;
  }
  backlog.set(std::max(max_backlog, 0.0));
  registry.counter("pipeline.load.batches").add(batch_index);
  return registry.snapshot();
}

/// The cluster workload. Two probes share one registry: a deterministic
/// Functional session replay across the shards with a mid-replay device
/// failure (pins the router.* rebalance counters and the per-shard
/// device.<k>.serve.batches exactly), and a Timed scatter/gather scaling
/// probe publishing router.scan.scaling_ratio = makespan(1 device) /
/// makespan(N devices). The degraded --cluster-devices 1 run must FAIL: the
/// ratio collapses to 1.0, no rebalance fires, and the device.1..3 series
/// never exist. Both probes are fully seeded and single-threaded on the
/// caller side, so every gated counter is bit-deterministic; each migrated
/// session is also verified against its serial reference, so the gate
/// doubles as a zero-loss rebalance check.
telemetry::MetricsSnapshot run_cluster_workload(const ArgParser& args) {
  const auto devices =
      static_cast<std::uint32_t>(args.get_int("cluster-devices"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  constexpr std::size_t kSessions = 32;
  constexpr std::size_t kStreamBytes = 4096;
  constexpr std::size_t kChunk = 256;

  telemetry::MetricsRegistry registry;

  // Probe 1: Functional session replay with a mid-replay fail-stop. All 32
  // sessions open up front (round-robin across the healthy shards), every
  // stream feeds its first half, then device 1 is failed — its sessions
  // drain through the exact host fallback and migrate — and the second
  // halves complete on the survivors.
  {
    cluster::ClusterOptions opt;
    opt.devices = devices;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu.num_sms = 4;
    opt.device.memory_bytes = 64u << 20;
    opt.engine.threads_per_block = 64;
    opt.max_sessions_per_shard = kSessions;
    opt.queue.coalesce_bytes = 8 * kChunk;
    opt.admission = serve::AdmissionPolicy::kAutoFlush;
    opt.metrics = &registry;
    Result<cluster::Router> router = cluster::Router::create(
        ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
    ACGPU_CHECK(router.is_ok(), router.status().to_string());
    cluster::Router& cl = router.value();

    std::vector<std::string> streams;
    std::vector<serve::SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
      Rng rng(derive_seed(seed, i));
      std::string stream(kStreamBytes, '\0');
      for (char& c : stream) c = "hershise ab"[rng.next_below(11)];
      streams.push_back(std::move(stream));
      ids.push_back(cl.open().value());
    }
    const auto replay = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = 0; i < kSessions; ++i)
        for (std::size_t pos = begin; pos < end; pos += kChunk) {
          const Status s =
              cl.feed(ids[i], std::string_view(streams[i]).substr(pos, kChunk));
          ACGPU_CHECK(s.is_ok(), s.to_string());
        }
    };
    replay(0, kStreamBytes / 2);
    if (devices > 1)
      ACGPU_CHECK(cl.mark_failed(1).is_ok(), "mark_failed(1) failed");
    replay(kStreamBytes / 2, kStreamBytes);
    ACGPU_CHECK(cl.drain().is_ok(), "drain failed");
    for (std::size_t i = 0; i < kSessions; ++i) {
      std::vector<ac::Match> got = cl.poll(ids[i]).value();
      ac::normalize_matches(got);
      std::vector<ac::Match> expected = ac::find_all(cl.dfa(), streams[i]);
      ac::normalize_matches(expected);
      ACGPU_CHECK(got == expected,
                  "cluster session " << ids[i]
                                     << " diverged from serial reference");
    }
    cl.shutdown();
  }

  // Probe 2: Timed scatter/gather scaling — the same input slab-partitioned
  // across 1 device and across N, ratio of simulated makespans. These
  // routers publish no metrics of their own (they would collide with probe
  // 1's per-shard series); only the ratio lands in the registry.
  {
    const auto size = static_cast<std::uint64_t>(args.get_bytes("size"));
    const std::uint64_t pool_bytes = 4u << 20;
    const std::string corpus = workload::make_corpus(size + pool_bytes, seed);
    workload::ExtractConfig ec;
    ec.count = static_cast<std::uint32_t>(args.get_int("patterns"));
    ec.min_length = 6;
    ec.max_length = 16;
    ec.word_aligned = true;
    const ac::PatternSet patterns = workload::extract_patterns(
        {corpus.data() + size, pool_bytes}, ec);

    const auto makespan = [&](std::uint32_t w) {
      cluster::ClusterOptions opt;
      opt.devices = w;
      opt.engine.mode = gpusim::SimMode::Timed;
      opt.engine.chunk_bytes = 64;
      opt.engine.threads_per_block = 192;
      opt.engine.streams = static_cast<std::uint32_t>(args.get_int("streams"));
      opt.engine.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
      opt.device.memory_bytes = 1u << 30;
      Result<cluster::Router> router = cluster::Router::create(patterns, opt);
      ACGPU_CHECK(router.is_ok(), router.status().to_string());
      Result<cluster::ClusterScanResult> scan =
          router.value().scan({corpus.data(), size});
      ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
      return scan.value().makespan_seconds;
    };
    const double serial = makespan(1);
    const double sharded = devices > 1 ? makespan(devices) : serial;
    registry.gauge("router.scan.scaling_ratio")
        .set(sharded > 0 ? serial / sharded : 0.0);
  }
  return registry.snapshot();
}

/// The SLO reference replay: 16 seeded streams
/// across 4 shards (4 sessions each, deterministic placement), the
/// serving-default policy with a window sized so every shard's last
/// evaluation lands exactly on its final feed. In the reference run no
/// dimension breaches and every state pins at ok; with --slo-overload K the
/// driver keeps feeding shard K's sessions past their byte quota, the
/// shard's error window fills with kCapacityExceeded, and the monitor trips
/// it unhealthy — which the baseline pins are designed to reject.
telemetry::MetricsSnapshot run_slo_workload(const ArgParser& args) {
  const int overload = args.get_int("slo-overload");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kStreamBytes = 4096;
  constexpr std::size_t kChunk = 256;

  telemetry::MetricsRegistry registry;
  cluster::ClusterOptions opt;
  opt.devices = 4;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.max_sessions_per_shard = kSessions;
  opt.queue.coalesce_bytes = 8 * kChunk;
  opt.admission = serve::AdmissionPolicy::kAutoFlush;
  opt.metrics = &registry;
  opt.slo = telemetry::SloPolicy::serving_defaults();
  opt.slo.window = 64;       // = feeds per shard: one full window per run
  opt.slo.min_samples = 8;
  opt.health_eval_interval = 4;
  // The overload demo halves the byte quota: the victim shard's sessions
  // are fed their full stream anyway, so their second halves all fail.
  if (overload >= 0) opt.session_limits.max_bytes = kStreamBytes / 2;

  Result<cluster::Router> router = cluster::Router::create(
      ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
  ACGPU_CHECK(router.is_ok(), router.status().to_string());
  cluster::Router& cl = router.value();

  std::vector<std::string> streams;
  std::vector<serve::SessionId> ids;
  std::vector<bool> victim;
  for (std::size_t i = 0; i < kSessions; ++i) {
    Rng rng(derive_seed(seed, i));
    std::string stream(kStreamBytes, '\0');
    for (char& c : stream) c = "hershise ab"[rng.next_below(11)];
    streams.push_back(std::move(stream));
    ids.push_back(cl.open().value());
    victim.push_back(overload >= 0 &&
                     cl.shard_of(ids[i]).value() ==
                         static_cast<std::uint32_t>(overload));
  }
  for (std::size_t pos = 0; pos < kStreamBytes; pos += kChunk)
    for (std::size_t i = 0; i < kSessions; ++i) {
      // Non-victims stop at their quota; victims push past it and take the
      // kCapacityExceeded answers into their shard's health window.
      if (overload >= 0 && !victim[i] && pos >= kStreamBytes / 2) continue;
      const Status s =
          cl.feed(ids[i], std::string_view(streams[i]).substr(pos, kChunk));
      if (!s.is_ok())
        ACGPU_CHECK(victim[i] && s.code() == StatusCode::kCapacityExceeded,
                    s.to_string());
    }
  ACGPU_CHECK(cl.drain().is_ok(), "drain failed");
  if (overload < 0)
    for (std::size_t i = 0; i < kSessions; ++i) {
      std::vector<ac::Match> got = cl.poll(ids[i]).value();
      ac::normalize_matches(got);
      std::vector<ac::Match> expected = ac::find_all(cl.dfa(), streams[i]);
      ac::normalize_matches(expected);
      ACGPU_CHECK(got == expected,
                  "slo session " << ids[i] << " diverged from serial reference");
    }
  cl.shutdown();
  return registry.snapshot();
}

/// The dispatch workload: ext_dispatch's
/// sweep at its default shape (harness/dispatch_experiment.h). Everything
/// is modeled, so the decision census, the misprediction count, and both
/// acceptance ratios are bit-deterministic. --dispatch-force worst swaps
/// the dispatched column to the predicted-slowest backend.
telemetry::MetricsSnapshot run_dispatch_workload(const ArgParser& args) {
  harness::DispatchSweepConfig config;
  config.pattern_count = static_cast<std::uint32_t>(args.get_int("patterns"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string force_name = args.get("dispatch-force");
  if (force_name == "worst") {
    config.policy = dispatch::ForcePolicy::kWorst;
  } else {
    ACGPU_CHECK(force_name == "auto",
                "--dispatch-force must be auto or worst, got '" << force_name
                                                                << "'");
  }
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;

  const harness::DispatchSweepResult result =
      harness::run_dispatch_sweep(config);
  registry.gauge("dispatch.gate.single_family_min_ratio")
      .set(result.single_family_min_ratio());
  registry.gauge("dispatch.gate.mixed_win_ratio").set(result.mixed_win_ratio());
  return registry.snapshot();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  ACGPU_CHECK(in.good(), "cannot read baseline file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "check_regression: run the canonical pipeline workload, snapshot the\n"
      "metrics registry, and gate the snapshot against a checked-in baseline\n"
      "of named bounds. Exits 1 on any violation.");
  args.add_flag("mode",
                "what to gate: pipeline (canonical Engine workload), serve "
                "(streaming session service), latency (under-load tail "
                "latency through the scheduler), cluster (multi-device "
                "router tier), slo (per-shard health monitor verdicts), or "
                "dispatch (adaptive backend dispatcher routing census)",
                "pipeline");
  args.add_flag("baseline", "baseline JSON to gate against",
                "bench/baselines/telemetry_baseline.json");
  args.add_flag("serve-sessions", "mode=serve: streams to replay", "48");
  args.add_flag("cluster-devices", "mode=cluster: shard count", "4");
  args.add_flag("slo-overload",
                "mode=slo: feed this shard's sessions past quota to force an "
                "SLO breach (-1 = reference run)",
                "-1");
  args.add_flag("dispatch-force",
                "mode=dispatch: policy for the dispatched sweeps — auto, or "
                "worst (the degraded demo: ratios collapse, gate must fail)",
                "auto");
  args.add_flag("latency-batches", "mode=latency: superbatches to replay", "48");
  args.add_flag("latency-interval-us",
                "mode=latency: superbatch arrival interval (microseconds)",
                "3000");
  args.add_flag("size", "input size for the canonical workload", "8MB");
  args.add_flag("batch", "owned bytes per pipeline batch", "1MB");
  args.add_flag("streams", "pipeline streams", "4");
  args.add_flag("patterns", "dictionary size", "2000");
  args.add_flag("seed", "workload seed", "780");
  args.add_flag("snapshot", "also dump the snapshot JSON here (empty = skip)", "");
  args.add_flag("write-baseline",
                "instead of gating, re-band the checks this baseline file "
                "names around this run and rewrite it",
                "");
  args.add_flag("slack", "tolerance band for --write-baseline (fraction)", "0.05");
  args.add_bool_flag("quiet", "suppress the verdict table");
  try {
    if (!args.parse(argc, argv)) return 0;
    const std::string mode = args.get("mode");
    ACGPU_CHECK(mode == "pipeline" || mode == "serve" || mode == "latency" ||
                    mode == "cluster" || mode == "slo" || mode == "dispatch",
                "--mode must be pipeline, serve, latency, cluster, slo, or "
                "dispatch, got '" << mode << "'");
    const telemetry::MetricsSnapshot snapshot =
        mode == "serve"      ? run_serve_workload(args)
        : mode == "latency"  ? run_latency_workload(args)
        : mode == "cluster"  ? run_cluster_workload(args)
        : mode == "slo"      ? run_slo_workload(args)
        : mode == "dispatch" ? run_dispatch_workload(args)
                             : run_workload(args);

    const std::string snapshot_path = args.get("snapshot");
    if (!snapshot_path.empty()) {
      std::ofstream out(snapshot_path);
      ACGPU_CHECK(out.good(), "cannot write " << snapshot_path);
      snapshot.write_json(out);
    }

    // --write-baseline re-bands the checks its file names; otherwise the
    // file named by --baseline is gated.
    const std::string write_path = args.get("write-baseline");
    const std::string baseline_path =
        write_path.empty() ? args.get("baseline") : write_path;
    Result<telemetry::RegressionBaseline> baseline =
        telemetry::parse_baseline(read_file(baseline_path));
    ACGPU_CHECK(baseline.is_ok(), baseline.status().to_string());

    if (!write_path.empty()) {
      // Banded in memory first: a series missing from the snapshot throws
      // here and leaves the file as it was.
      std::ostringstream text;
      telemetry::write_baseline(snapshot, baseline.value(), args.get_double("slack"),
                                text);
      std::ofstream out(write_path);
      out << text.str();
      ACGPU_CHECK(out.good(), "cannot write " << write_path);
      std::printf("check_regression: wrote %s (re-banded %zu series)\n",
                  write_path.c_str(), baseline.value().checks.size());
      return 0;
    }

    const telemetry::RegressionVerdict verdict =
        telemetry::check_regression(snapshot, baseline.value());
    if (!args.get_bool("quiet"))
      telemetry::write_verdict_table(snapshot, baseline.value(), std::cout);
    if (verdict.pass()) {
      std::printf("check_regression: PASS (%zu checks, mode %s)\n",
                  verdict.checks, mode.c_str());
      return 0;
    }
    std::printf("check_regression: FAIL (%zu of %zu checks violated)\n",
                verdict.violations.size(), verdict.checks);
    for (const telemetry::RegressionViolation& v : verdict.violations)
      std::printf("  %s: %s\n", v.name.c_str(), v.detail.c_str());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "check_regression: %s\n", e.what());
    return 2;
  }
}
