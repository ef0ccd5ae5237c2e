#include "hostcheck/audit.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "ac/match.h"
#include "oracle/workload_gen.h"
#include "pipeline/engine.h"
#include "cluster/router.h"
#include "serve/service.h"
#include "util/error.h"

namespace acgpu::hostcheck {
namespace {

using oracle::CompiledWorkload;

bool same_matches(std::vector<ac::Match> got,
                  const std::vector<ac::Match>& expected) {
  ac::normalize_matches(got);
  return got == expected;
}

}  // namespace

std::string to_string(const HostAuditConfig& config) {
  std::string name = "s";
  name += std::to_string(config.streams);  // operator+ trips GCC 12's -Wrestrict
  return name;
}

const std::vector<HostAuditConfig>& default_config_matrix() {
  static const std::vector<HostAuditConfig> matrix = {{1}, {2}, {4}, {8}};
  return matrix;
}

HostAuditOutcome audit_pipeline(const CompiledWorkload& workload,
                                const HostAuditConfig& config,
                                const HostAuditSpec& spec) {
  const std::vector<ac::Match> expected = oracle::reference_matches(workload);

  Recorder recorder;
  // Capacity retry mirrors gpucheck: grow the per-thread match buffer until
  // nothing overflows, with a fresh trace per attempt so the audited
  // schedule is the one whose matches we keep.
  for (std::uint32_t capacity = 64;; capacity *= 4) {
    ACGPU_CHECK(capacity <= (1u << 14),
                "hostcheck audit: match buffer still overflowing at capacity "
                    << capacity << " on workload " << workload.name());
    recorder.reset();

    HostAuditOutcome outcome;
    {
      // The engine and its device die at the end of this block, before the
      // trace is analysed: the scan-mutex lock ~Engine takes to return its
      // upload is part of the audited schedule.
      EngineOptions eo;
      eo.streams = config.streams;
      // At most text / (streams + 2) bytes a batch: at least streams + 2
      // batches, so every stream count rewrites an upload buffer its stream
      // last staged, with a batch on every other stream in between.
      eo.batch_bytes = std::clamp<std::uint64_t>(
          workload.text().size() / (config.streams + 2), 1, spec.batch_bytes);
      eo.match_capacity = capacity;
      DeviceOptions dopt;
      dopt.host_observer = &recorder;  // the engine inherits it
      Result<Device> device = Device::create(dopt);
      ACGPU_CHECK(device.is_ok(), "hostcheck audit: Device::create failed on "
                                   << workload.name() << ": "
                                   << device.status().message());
      Result<Engine> engine =
          Engine::create(device.value(), workload.patterns(), eo);
      ACGPU_CHECK(engine.is_ok(), "hostcheck audit: Engine::create failed on "
                                   << workload.name() << ": "
                                   << engine.status().message());

      Result<ScanResult> scan = engine.value().scan(workload.text());
      ACGPU_CHECK(scan.is_ok(), "hostcheck audit: Engine::scan failed on "
                                 << workload.name() << ": "
                                 << scan.status().message());
      if (scan.value().overflowed) continue;
      outcome.match_count = scan.value().matches.size();
      outcome.matches_ok = same_matches(scan.value().matches, expected);
    }
    outcome.report = analyze(recorder.trace());
    return outcome;
  }
}

HostAuditOutcome audit_serve(const CompiledWorkload& workload,
                             const HostAuditSpec& spec) {
  const std::vector<ac::Match> expected = oracle::reference_matches(workload);
  const std::uint32_t feeders = std::max(1u, spec.serve_threads);
  const std::uint32_t chunks = std::max(1u, spec.serve_chunks);

  Recorder recorder;
  serve::ServeOptions so;
  so.engine.batch_bytes = spec.batch_bytes;
  so.background = true;
  so.device.host_observer = &recorder;
  Result<serve::StreamService> created =
      serve::StreamService::create(workload.patterns(), so);
  ACGPU_CHECK(created.is_ok(), "hostcheck audit: StreamService::create failed on "
                                << workload.name() << ": "
                                << created.status().message());
  std::optional<serve::StreamService> service(std::move(created).value());
  serve::StreamService& svc = *service;

  // Each feeder streams the whole text through its own session, so every
  // session must poll exactly the reference matches — while the concurrent
  // feeds exercise the tracked service/scheduler/session-manager locks.
  std::vector<serve::SessionId> sessions(feeders);
  for (std::uint32_t f = 0; f < feeders; ++f) {
    Result<serve::SessionId> id = svc.open();
    ACGPU_CHECK(id.is_ok(), "hostcheck audit: open failed: "
                             << id.status().message());
    sessions[f] = id.value();
  }
  std::vector<std::thread> threads;
  threads.reserve(feeders);
  for (std::uint32_t f = 0; f < feeders; ++f) {
    threads.emplace_back([&, f] {
      const std::string_view text = workload.text();
      const std::size_t step = text.size() / chunks + 1;
      for (std::size_t at = 0; at < text.size() || at == 0; at += step) {
        const std::string_view chunk = text.substr(at, step);
        for (;;) {
          const Status status = svc.feed(sessions[f], chunk);
          if (status.is_ok()) break;
          ACGPU_CHECK(status.code() == StatusCode::kOverloaded,
                      "hostcheck audit: feed failed: " << status.message());
          std::this_thread::yield();  // bounded queue full — retry
        }
        if (text.empty()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Status drained = svc.drain();
  ACGPU_CHECK(drained.is_ok(),
              "hostcheck audit: drain failed: " << drained.message());

  HostAuditOutcome outcome;
  outcome.matches_ok = true;
  for (std::uint32_t f = 0; f < feeders; ++f) {
    Result<std::vector<ac::Match>> polled = svc.poll(sessions[f]);
    ACGPU_CHECK(polled.is_ok(), "hostcheck audit: poll failed: "
                                 << polled.status().message());
    outcome.match_count += polled.value().size();
    outcome.matches_ok =
        outcome.matches_ok && same_matches(polled.value(), expected);
  }
  // Destroy the service (its worker, engine and device) before analysing,
  // so the trace holds the engine's upload-drop lock too.
  service.reset();
  outcome.report = analyze(recorder.trace());
  return outcome;
}

HostAuditOutcome audit_cluster(const CompiledWorkload& workload,
                               std::uint32_t devices, std::uint32_t streams,
                               const HostAuditSpec& spec) {
  const std::vector<ac::Match> expected = oracle::reference_matches(workload);
  const std::uint32_t feeders = std::max(1u, spec.serve_threads);
  const std::uint32_t chunks = std::max(1u, spec.serve_chunks);

  Recorder recorder;
  cluster::ClusterOptions co;
  co.devices = std::max(1u, devices);
  co.engine.batch_bytes = spec.batch_bytes;
  co.engine.streams = std::max(1u, streams);
  co.background = true;  // one pump thread per shard: N devices in flight
  co.device.host_observer = &recorder;
  Result<cluster::Router> created = cluster::Router::create(workload.patterns(), co);
  ACGPU_CHECK(created.is_ok(), "hostcheck audit: Router::create failed on "
                                   << workload.name() << ": "
                                   << created.status().message());
  std::optional<cluster::Router> router(std::move(created).value());
  cluster::Router& cl = *router;

  std::vector<serve::SessionId> sessions(feeders);
  for (std::uint32_t f = 0; f < feeders; ++f) {
    Result<serve::SessionId> id = cl.open();
    ACGPU_CHECK(id.is_ok(),
                "hostcheck audit: open failed: " << id.status().message());
    sessions[f] = id.value();
  }
  // The failure is injected from a dedicated thread once any feeder crosses
  // the halfway mark, so the rebalance races real concurrent feeds — the
  // schedule shape the auditor is here to vet.
  std::atomic<std::uint64_t> fed_chunks{0};
  const std::uint64_t trigger = (static_cast<std::uint64_t>(feeders) * chunks) / 2;
  std::thread injector;
  if (co.devices > 1) {
    injector = std::thread([&] {
      while (fed_chunks.load(std::memory_order_relaxed) < trigger)
        std::this_thread::yield();
      const Status failed = cl.mark_failed(0);
      ACGPU_CHECK(failed.is_ok(), "hostcheck audit: mark_failed failed: "
                                      << failed.message());
    });
  }
  std::vector<std::thread> threads;
  threads.reserve(feeders);
  for (std::uint32_t f = 0; f < feeders; ++f) {
    threads.emplace_back([&, f] {
      const std::string_view text = workload.text();
      const std::size_t step = text.size() / chunks + 1;
      for (std::size_t at = 0; at < text.size() || at == 0; at += step) {
        const std::string_view chunk = text.substr(at, step);
        for (;;) {
          const Status status = cl.feed(sessions[f], chunk);
          if (status.is_ok()) break;
          ACGPU_CHECK(status.code() == StatusCode::kOverloaded,
                      "hostcheck audit: feed failed: " << status.message());
          std::this_thread::yield();  // bounded queue full — retry
        }
        fed_chunks.fetch_add(1, std::memory_order_relaxed);
        if (text.empty()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (injector.joinable()) injector.join();
  const Status drained = cl.drain();
  ACGPU_CHECK(drained.is_ok(),
              "hostcheck audit: drain failed: " << drained.message());

  HostAuditOutcome outcome;
  outcome.matches_ok = true;
  for (std::uint32_t f = 0; f < feeders; ++f) {
    Result<std::vector<ac::Match>> polled = cl.poll(sessions[f]);
    ACGPU_CHECK(polled.is_ok(), "hostcheck audit: poll failed: "
                                    << polled.status().message());
    outcome.match_count += polled.value().size();
    outcome.matches_ok =
        outcome.matches_ok && same_matches(polled.value(), expected);
  }
  // Destroy the router (every shard's worker, engine and device) before
  // analysing, so the trace holds the engines' upload-drop locks too.
  router.reset();
  outcome.report = analyze(recorder.trace());
  return outcome;
}

std::vector<HostSweepResult> audit_conformance(
    std::uint64_t seed, std::uint64_t iterations,
    const std::vector<HostAuditConfig>& configs, const HostAuditSpec& spec) {
  const std::vector<HostAuditConfig>& matrix =
      configs.empty() ? default_config_matrix() : configs;

  std::vector<CompiledWorkload> workloads;
  workloads.reserve(iterations);
  for (std::uint64_t i = 0; i < iterations; ++i)
    workloads.emplace_back(oracle::generate_workload(seed, i));

  std::vector<HostSweepResult> results;
  results.reserve(matrix.size() + 1);
  for (const HostAuditConfig& config : matrix) {
    HostSweepResult result;
    result.name = "pipeline " + to_string(config);
    for (const CompiledWorkload& w : workloads) {
      const HostAuditOutcome outcome = audit_pipeline(w, config, spec);
      result.report.merge(outcome.report, AnalyzeOptions{}.max_hazards);
      ++result.workloads;
      if (!outcome.matches_ok) ++result.mismatches;
    }
    results.push_back(std::move(result));
  }
  {
    HostSweepResult result;
    result.name = "serve";
    for (const CompiledWorkload& w : workloads) {
      const HostAuditOutcome outcome = audit_serve(w, spec);
      result.report.merge(outcome.report, AnalyzeOptions{}.max_hazards);
      ++result.workloads;
      if (!outcome.matches_ok) ++result.mismatches;
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace acgpu::hostcheck
