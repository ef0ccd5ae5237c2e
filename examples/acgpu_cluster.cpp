// acgpu_cluster — the multi-device sharding demo: session traffic and bulk
// scans routed across N simulated devices, with a device failure survived
// mid-replay.
//
//   acgpu_cluster                              # 4 devices, defaults
//   acgpu_cluster --devices 8 --sessions 64 --background
//   acgpu_cluster --no-fail --stats
//   acgpu_cluster --trace fleet.json           # Perfetto fleet trace
//   acgpu_cluster --postmortem crash.json      # black box on the failure
//
// Each simulated client streams its own seeded corpus through the
// cluster::Router, which homes every session on the least-loaded healthy
// shard. Halfway through the replay one device is fail-stopped: its queued
// work drains through the exact host fallback and its sessions migrate —
// state, quotas, and unpolled matches intact — onto the survivors. After
// the replay every session is checked against a serial host scan of its own
// stream, so the demo doubles as a zero-loss rebalance proof. A bulk
// scatter/gather scan over one large input then shows the other traffic
// path: slab partitioning, seam-exact merging, and the per-device makespans
// behind the cluster's scaling claim (bench/ext_cluster.cpp).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "acgpu.h"

using namespace acgpu;

namespace {

std::string make_stream(std::uint64_t seed, std::size_t session,
                        std::size_t bytes) {
  Rng rng(derive_seed(seed, session));
  std::string text(bytes, '\0');
  for (char& c : text) c = "hershise ab"[rng.next_below(11)];
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "acgpu_cluster: shard session traffic and bulk scans across N "
      "simulated devices, failing one mid-replay.\n"
      "usage: acgpu_cluster [flags]");
  args.add_flag("devices", "shard count (independent simulated devices)", "4");
  args.add_flag("sessions", "concurrent sessions to replay", "16");
  args.add_flag("bytes", "stream bytes per session", "16KB");
  args.add_flag("chunk", "feed size per chunk", "512");
  args.add_flag("scan", "bulk scatter/gather input size (0 skips)", "4MB");
  args.add_flag("seed", "corpus seed", "42");
  args.add_bool_flag("background", "every shard pumps on its own thread");
  args.add_bool_flag("no-fail", "skip the mid-replay device failure");
  args.add_bool_flag("stats", "print the router.* / device.*.* metrics table");
  args.add_flag("trace",
                "write the joined fleet Chrome trace here (empty = off)", "");
  args.add_flag("postmortem",
                "arm the flight recorder; the mid-replay failure dumps its "
                "black box here (empty = off)",
                "");
  args.add_bool_flag("slo", "enable the serving-default SLO health monitor");

  try {
    if (!args.parse(argc, argv)) return 0;
    const auto devices = static_cast<std::uint32_t>(args.get_int("devices"));
    const auto sessions = static_cast<std::size_t>(args.get_int("sessions"));
    const auto stream_bytes = static_cast<std::size_t>(args.get_bytes("bytes"));
    const auto chunk = static_cast<std::size_t>(args.get_int("chunk"));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
    ACGPU_CHECK(sessions > 0 && chunk > 0, "--sessions and --chunk must be >= 1");
    const bool fail = !args.get_bool("no-fail") && devices > 1;

    telemetry::MetricsRegistry registry;
    cluster::ClusterOptions opt;
    opt.devices = devices;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu.num_sms = 4;
    opt.device.memory_bytes = 64u << 20;
    opt.max_sessions_per_shard = static_cast<std::uint32_t>(sessions);
    opt.queue.coalesce_bytes = 16u << 10;
    opt.background = args.get_bool("background");
    // Synchronous mode auto-flushes on a full queue; background mode keeps
    // the default reject policy and the feed loop below absorbs kOverloaded.
    if (!opt.background) opt.admission = serve::AdmissionPolicy::kAutoFlush;
    const std::string trace_path = args.get("trace");
    const std::string postmortem_path = args.get("postmortem");
    telemetry::FlightRecorder recorder;
    if (args.get_bool("stats") || !postmortem_path.empty())
      opt.metrics = &registry;
    opt.trace = !trace_path.empty();
    if (!postmortem_path.empty()) {
      opt.recorder = &recorder;
      opt.postmortem_path = postmortem_path;
    }
    if (args.get_bool("slo")) opt.slo = telemetry::SloPolicy::serving_defaults();

    auto router = cluster::Router::create(
        ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
    ACGPU_CHECK(router.is_ok(), router.status().to_string());
    cluster::Router& cl = router.value();

    std::vector<serve::SessionId> ids(sessions);
    std::vector<std::string> streams(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      ids[i] = cl.open().value();
      streams[i] = make_stream(seed, i, stream_bytes);
    }
    std::printf("opened %zu sessions across %u devices", sessions, devices);
    if (sessions > 0)
      std::printf(" (session 0 -> shard %u, globally unique id %llu)",
                  cl.shard_of(ids[0]).value(),
                  static_cast<unsigned long long>(ids[0]));
    std::printf("\n");

    // Interleaved replay, one chunk per session per round. Halfway through,
    // fail-stop one device: the router drains it (host fallback keeps every
    // accepted byte exact) and migrates its sessions to the survivors.
    Stopwatch clock;
    const std::size_t half = (stream_bytes / chunk / 2) * chunk;
    bool failed = false;
    for (std::size_t pos = 0; pos < stream_bytes; pos += chunk) {
      if (fail && !failed && pos >= half) {
        const std::uint32_t victim = cl.shard_of(ids[0]).value();
        ACGPU_CHECK(cl.mark_failed(victim).is_ok(), "mark_failed failed");
        failed = true;
        std::printf("fail-stopped device %u mid-replay; its sessions migrated "
                    "(session 0 now on shard %u)\n",
                    victim, cl.shard_of(ids[0]).value());
      }
      for (std::size_t i = 0; i < sessions; ++i) {
        const std::string_view slice =
            std::string_view(streams[i]).substr(pos, chunk);
        for (;;) {
          const Status s = cl.feed(ids[i], slice);
          if (s.is_ok()) break;
          ACGPU_CHECK(s.code() == StatusCode::kOverloaded, s.to_string());
          std::this_thread::yield();  // bounded queue pushed back
        }
      }
    }
    ACGPU_CHECK(cl.drain().is_ok(), "drain failed");
    const double replay_s = clock.seconds();

    // Verify every session — including the migrated ones — against a serial
    // host scan of its own stream: zero lost, zero duplicated.
    std::uint64_t total_matches = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
      std::vector<ac::Match> expected = ac::find_all(cl.dfa(), streams[i]);
      ac::normalize_matches(expected);
      auto got = cl.poll(ids[i]).value();
      ac::normalize_matches(got);
      ACGPU_CHECK(got == expected, "session " << ids[i] << " diverged: "
                                              << got.size() << " matches vs "
                                              << expected.size() << " expected");
      total_matches += got.size();
    }
    const cluster::RouterStats stats = cl.stats();
    std::printf(
        "replayed %zu sessions x %s in %s: %llu matches, %llu rebalance(s) "
        "moving %llu session(s), %u/%u shards healthy\n",
        sessions, format_bytes(stream_bytes).c_str(),
        format_seconds(replay_s).c_str(),
        static_cast<unsigned long long>(total_matches),
        static_cast<unsigned long long>(stats.rebalances),
        static_cast<unsigned long long>(stats.sessions_rebalanced),
        stats.healthy_shards, stats.shards);
    std::puts("every session matched its serial reference");

    // Bulk path: slab-scatter one input across the surviving devices and
    // gather the merged, seam-exact match stream.
    const auto scan_bytes = static_cast<std::size_t>(args.get_bytes("scan"));
    if (scan_bytes > 0) {
      const std::string corpus = workload::make_corpus(scan_bytes, seed);
      auto scan = cl.scan(corpus);
      ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
      std::vector<ac::Match> expected = ac::find_all(cl.dfa(), corpus);
      ac::normalize_matches(expected);
      ACGPU_CHECK(scan.value().matches == expected,
                  "bulk scan diverged from the serial reference");
      std::printf(
          "bulk scan of %s across %u device(s): %zu matches (seam-exact), "
          "simulated makespan %s = slowest slab\n",
          format_bytes(scan_bytes).c_str(), scan.value().devices_used,
          scan.value().matches.size(),
          format_seconds(scan.value().makespan_seconds).c_str());
    }

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "acgpu_cluster: cannot write %s\n",
                     trace_path.c_str());
        return 2;
      }
      const Status ts = cl.write_trace(out);
      ACGPU_CHECK(ts.is_ok(), ts.to_string());
      std::printf(
          "fleet trace -> %s (router + %u shard host + device processes; "
          "search a trace id to follow one request end to end)\n",
          trace_path.c_str(), devices);
    }
    if (failed && !postmortem_path.empty())
      std::printf("postmortem black box -> %s (%llu events recorded)\n",
                  postmortem_path.c_str(),
                  static_cast<unsigned long long>(recorder.recorded()));
    if (args.get_bool("slo"))
      for (std::uint32_t k = 0; k < devices; ++k)
        std::printf("shard %u health: %s\n", k,
                    telemetry::to_string(cl.shard_health_state(k)));
    if (args.get_bool("stats")) registry.snapshot().write_table(std::cout);
    cl.shutdown();
  } catch (const Error& e) {
    std::fprintf(stderr, "acgpu_cluster: %s\n", e.what());
    return 2;
  }
  return 0;
}
