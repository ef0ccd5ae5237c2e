// acgpu_top — the fleet observability dashboard and black-box viewer.
//
//   acgpu_top                        # live board over a self-driven fleet
//   acgpu_top --once                 # one frame, no ANSI (the CI smoke)
//   acgpu_top --overload 1           # drive shard 1 into SLO breach live
//   acgpu_top --postmortem dump.json # decode a flight-recorder black box
//
// The board stands up an in-process cluster::Router with the full
// observability stack armed — metrics registry, flight recorder, and the
// serving-default SLO health monitor, plus a shared adaptive dispatcher
// routing every coalesced superbatch host-vs-device — drives seeded
// session traffic through it, and refreshes a per-shard table: health
// state, windowed
// p50/p99 feed latency, queue depth, error/eviction rates, and which SLO
// dimensions are breached. With --overload K the driver feeds shard K's
// sessions past their byte quota every frame, so the board shows the
// error-rate window fill, the shard trip degraded -> unhealthy, and new
// placements shift to the survivors (health.<k>.* mirrors every column).
//
// Viewer mode decodes a postmortem JSON written by Router::mark_failed /
// write_postmortem (schema: docs/OBSERVABILITY.md) into a time-sorted
// event table plus the joined metrics snapshot's router.* rows.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "acgpu.h"

using namespace acgpu;

namespace {

int view_postmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "acgpu_top: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = telemetry::parse_json(buf.str());
  const telemetry::JsonValue* pm = doc ? doc->find("postmortem") : nullptr;
  if (pm == nullptr || !pm->is_object()) {
    std::fprintf(stderr,
                 "acgpu_top: %s has no \"postmortem\" object (not a "
                 "flight-recorder dump?)\n",
                 path.c_str());
    return 2;
  }
  const telemetry::JsonValue* reason = pm->find("reason");
  std::printf("postmortem: %s\n",
              reason != nullptr && reason->is_string() ? reason->string().c_str()
                                                       : "(no reason)");
  std::printf("recorded %.0f event(s) lifetime, %.0f dropped; window %s\n",
              pm->number_at("recorded").value_or(0),
              pm->number_at("dropped").value_or(0),
              pm->number_at("window_ns").value_or(0) == 0
                  ? "unbounded"
                  : format_seconds(pm->number_at("window_ns").value_or(0) / 1e9)
                        .c_str());

  const telemetry::JsonValue* events = pm->find("events");
  if (events != nullptr && events->is_array() && !events->array().empty()) {
    const double t0 = events->array().front().number_at("t_ns").value_or(0);
    std::printf("%zu event(s) in the dump window:\n", events->array().size());
    std::printf("  %10s  %-18s %5s %4s %12s %12s %3s\n", "t(+ms)", "kind",
                "shard", "code", "a", "b", "thr");
    for (const telemetry::JsonValue& e : events->array()) {
      const telemetry::JsonValue* kind = e.find("kind");
      std::printf("  %10.3f  %-18s %5.0f %4.0f %12.0f %12.0f %3.0f\n",
                  (e.number_at("t_ns").value_or(0) - t0) / 1e6,
                  kind != nullptr && kind->is_string() ? kind->string().c_str()
                                                       : "?",
                  e.number_at("shard").value_or(0),
                  e.number_at("code").value_or(0), e.number_at("a").value_or(0),
                  e.number_at("b").value_or(0),
                  e.number_at("thread").value_or(0));
    }
  } else {
    std::puts("no events in the dump window");
  }

  const telemetry::JsonValue* metrics = doc->find("metrics");
  if (metrics != nullptr && metrics->is_object()) {
    std::printf("joined metrics snapshot: %zu series; router.* rows:\n",
                metrics->object().size());
    for (const auto& [name, value] : metrics->object())
      if (name.rfind("router.", 0) == 0 && value.is_number())
        std::printf("  %-32s %.0f\n", name.c_str(), value.number());
  }
  return 0;
}

void render(cluster::Router& cl, const telemetry::FlightRecorder& recorder,
            const dispatch::Dispatcher& dispatcher, std::uint32_t frame,
            bool ansi) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  const cluster::RouterStats rs = cl.stats();
  std::printf(
      "acgpu_top — frame %u | %u/%u shards healthy | %llu live sessions | "
      "%llu feeds / %s | recorder %llu event(s), %llu dropped\n",
      frame, rs.healthy_shards, rs.shards,
      static_cast<unsigned long long>(rs.sessions_live),
      static_cast<unsigned long long>(rs.feeds),
      format_bytes(rs.bytes).c_str(),
      static_cast<unsigned long long>(recorder.recorded()),
      static_cast<unsigned long long>(recorder.dropped()));
  const dispatch::DispatchStats ds = dispatcher.stats();
  std::printf(
      "dispatch — serial %llu | parallel %llu | gpu %llu | mispredictions "
      "%llu\n",
      static_cast<unsigned long long>(
          ds.decisions[static_cast<int>(dispatch::Backend::kSerialCpu)]),
      static_cast<unsigned long long>(
          ds.decisions[static_cast<int>(dispatch::Backend::kParallelCpu)]),
      static_cast<unsigned long long>(
          ds.decisions[static_cast<int>(dispatch::Backend::kGpuPipeline)]),
      static_cast<unsigned long long>(ds.mispredictions));
  std::printf("%5s %-10s %-10s %5s %8s %6s %6s %8s %8s %6s %6s  %s\n", "SHARD",
              "DEVICE", "STATE", "SESS", "FEEDS", "REJ", "QUEUE", "P50(ms)",
              "P99(ms)", "ERR%", "EVI%", "BREACHED");
  for (std::uint32_t k = 0; k < cl.shard_count(); ++k) {
    const cluster::ShardStats ss = cl.shard_stats(k).value();
    const telemetry::ShardHealth h = cl.shard_health(k).value();
    const char* state = ss.failed     ? "FAILED"
                        : ss.draining ? "draining"
                                      : telemetry::to_string(h.state);
    std::printf(
        "%5u %-10s %-10s %5llu %8llu %6llu %6llu %8.2f %8.2f %5.1f%% %5.1f%%  "
        "%s\n",
        k, ss.device_name.c_str(), state,
        static_cast<unsigned long long>(ss.homed_sessions),
        static_cast<unsigned long long>(ss.service.feeds_accepted),
        static_cast<unsigned long long>(ss.service.feeds_rejected +
                                        ss.service.quota_rejects),
        static_cast<unsigned long long>(ss.service.queued_chunks),
        h.feed_p50_ns / 1e6, h.feed_p99_ns / 1e6, h.error_rate * 100,
        h.eviction_rate * 100, h.breached.empty() ? "-" : h.breached.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "acgpu_top: live per-shard health/SLO dashboard over a self-driven "
      "simulated fleet, and flight-recorder postmortem viewer.\n"
      "usage: acgpu_top [flags]");
  args.add_flag("devices", "shard count (independent simulated devices)", "4");
  args.add_flag("sessions", "concurrent sessions to drive", "8");
  args.add_flag("chunk", "bytes fed per session per frame", "1KB");
  args.add_flag("frames", "frames to render before exiting", "12");
  args.add_flag("refresh-ms", "delay between frames", "250");
  args.add_flag("seed", "traffic seed", "42");
  args.add_flag("overload",
                "feed this shard's sessions past quota every frame to force "
                "an SLO error-rate breach (-1 = off)",
                "-1");
  args.add_bool_flag("once", "render exactly one frame, no ANSI (CI smoke)");
  args.add_flag("postmortem",
                "decode this postmortem JSON instead of running the board", "");

  try {
    if (!args.parse(argc, argv)) return 0;
    const std::string pm_path = args.get("postmortem");
    if (!pm_path.empty()) return view_postmortem(pm_path);

    const auto devices = static_cast<std::uint32_t>(args.get_int("devices"));
    const auto sessions = static_cast<std::size_t>(args.get_int("sessions"));
    const auto chunk = static_cast<std::size_t>(args.get_bytes("chunk"));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const int overload = args.get_int("overload");
    const bool once = args.get_bool("once");
    const auto frames =
        once ? 1u : static_cast<std::uint32_t>(args.get_int("frames"));
    ACGPU_CHECK(sessions > 0 && chunk > 0 && frames > 0,
                "--sessions, --chunk, and --frames must be >= 1");
    ACGPU_CHECK(overload < static_cast<int>(devices),
                "--overload shard out of range");

    telemetry::MetricsRegistry registry;
    telemetry::FlightRecorder recorder;

    // One advisory dispatcher shared by every shard: each coalesced
    // superbatch is routed host-vs-device by the cost model, and the
    // dispatch.* census lands in the same registry the board reads. The
    // DFA must outlive the dispatcher, the dispatcher the router.
    const ac::PatternSet fleet_patterns({"he", "she", "his", "hers", "ab"});
    const ac::Automaton fleet_automaton(fleet_patterns);
    const ac::Dfa fleet_dfa(fleet_automaton, fleet_patterns,
                            /*pad_pitch_to=*/8);
    dispatch::DispatcherOptions dispatch_opt;
    dispatch_opt.metrics = &registry;
    dispatch::Dispatcher dispatcher(fleet_dfa, dispatch_opt);

    cluster::ClusterOptions opt;
    opt.devices = devices;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu.num_sms = 4;
    opt.device.memory_bytes = 64u << 20;
    opt.max_sessions_per_shard = static_cast<std::uint32_t>(sessions) + 1;
    opt.admission = serve::AdmissionPolicy::kAutoFlush;
    // AutoFlush only scans when a feed finds the queue full, so bound the
    // per-shard queue at a frame's worth of chunks: superbatches then flush
    // inline while the board is up and the dispatch census advances live.
    opt.queue.coalesce_bytes = 2 * chunk;
    opt.queue.max_queue_chunks = 4;
    opt.queue.max_queue_bytes = 4 * chunk;
    opt.metrics = &registry;
    opt.recorder = &recorder;
    opt.dispatcher = &dispatcher;
    opt.slo = telemetry::SloPolicy::serving_defaults();
    // Small windows so the board reacts within a few frames.
    opt.slo.window = 64;
    opt.slo.min_samples = 8;
    opt.health_eval_interval = 4;
    // Quota only matters to the overloaded shard's sessions: the driver
    // feeds them 4 chunks per frame against a 2-chunks-per-frame budget, so
    // half their feeds fail kCapacityExceeded and fill the error window;
    // everyone else (1 chunk per frame) stays at half quota.
    if (overload >= 0) opt.session_limits.max_bytes = 2ull * frames * chunk;

    auto router = cluster::Router::create(fleet_patterns, opt);
    ACGPU_CHECK(router.is_ok(), router.status().to_string());
    cluster::Router& cl = router.value();

    std::vector<serve::SessionId> ids(sessions);
    for (std::size_t i = 0; i < sessions; ++i) ids[i] = cl.open().value();

    Rng rng(seed);
    std::string payload(chunk, '\0');
    for (std::uint32_t frame = 1; frame <= frames; ++frame) {
      for (std::size_t i = 0; i < sessions; ++i) {
        for (char& c : payload) c = "hershise ab"[rng.next_below(11)];
        const bool victim =
            overload >= 0 &&
            cl.shard_of(ids[i]).value() == static_cast<std::uint32_t>(overload);
        // The victim shard's sessions are fed until (and then past) their
        // byte quota: every over-quota feed is a kCapacityExceeded error in
        // the shard's health window.
        const std::size_t rounds = victim ? 4 : 1;
        for (std::size_t r = 0; r < rounds; ++r) {
          const Status s = cl.feed(ids[i], payload);
          if (!s.is_ok() && s.code() != StatusCode::kCapacityExceeded &&
              s.code() != StatusCode::kOverloaded)
            throw Error(s.to_string());
        }
      }
      render(cl, recorder, dispatcher, frame, !once && frame > 1);
      if (!once && frame < frames)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.get_int("refresh-ms")));
    }

    if (overload >= 0) {
      // Placement proof: a fresh session must not land on the breached shard
      // while any healthier one exists.
      const auto victim = static_cast<std::uint32_t>(overload);
      const std::uint32_t home = cl.shard_of(cl.open().value()).value();
      std::printf(
          "shard %u is %s; new session homed on shard %u (placement shifted "
          "away)\n",
          victim, telemetry::to_string(cl.shard_health_state(victim)), home);
      ACGPU_CHECK(cl.shard_health_state(victim) != telemetry::HealthState::kOk,
                  "overloaded shard never breached its SLO");
      ACGPU_CHECK(home != victim,
                  "placement did not shift away from the breached shard");
    }
    ACGPU_CHECK(cl.drain().is_ok(), "drain failed");
    cl.shutdown();
  } catch (const Error& e) {
    std::fprintf(stderr, "acgpu_top: %s\n", e.what());
    return 2;
  }
  return 0;
}
