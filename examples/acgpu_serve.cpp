// acgpu_serve — the streaming session service demo: replay interleaved
// multi-session traffic against one shared engine.
//
//   acgpu_serve                         # 8 sessions, defaults
//   acgpu_serve --sessions 64 --queue-chunks 4 --background --soak
//   acgpu_serve --chunk 128 --stats
//
// Each simulated client streams its own seeded corpus chunk by chunk; the
// replay round-robins feeds across all sessions so superbatches mix many
// streams, exactly the traffic shape the scheduler's partition filter and
// the sessions' boundary continuations exist for. After the replay every
// session's matches are checked against a serial host scan of its own
// stream — the demo doubles as an end-to-end soak (`--soak` asserts that
// backpressure actually fired and the drain left nothing queued).
#include <cstdio>
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
      "acgpu_serve: replay interleaved multi-session traffic through the "
      "streaming session service.\n"
      "usage: acgpu_serve [flags]");
  args.add_flag("sessions", "concurrent sessions to replay", "8");
  args.add_flag("bytes", "stream bytes per session", "16KB");
  args.add_flag("chunk", "feed size per chunk", "512");
  args.add_flag("queue-chunks", "bounded queue depth (admission control)", "64");
  args.add_flag("coalesce", "superbatch coalescing target", "16KB");
  args.add_flag("seed", "corpus seed", "42");
  args.add_bool_flag("background", "consume the queue on a worker thread");
  args.add_bool_flag("soak", "assert backpressure fired and drain was clean");
  args.add_bool_flag("stats", "print the serve.* metrics table");

  try {
    if (!args.parse(argc, argv)) return 0;
    const std::size_t sessions = static_cast<std::size_t>(args.get_int("sessions"));
    const std::size_t stream_bytes = static_cast<std::size_t>(args.get_bytes("bytes"));
    const std::size_t chunk = static_cast<std::size_t>(args.get_int("chunk"));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
    ACGPU_CHECK(sessions > 0 && chunk > 0, "--sessions and --chunk must be >= 1");
    ACGPU_CHECK(!args.get_bool("soak") || args.get_bool("background"),
                "--soak needs --background (the synchronous service "
                "auto-flushes instead of rejecting, so backpressure never "
                "surfaces as kOverloaded)");

    telemetry::MetricsRegistry registry;
    serve::ServeOptions opt;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu.num_sms = 4;
    opt.device.memory_bytes = 64u << 20;
    opt.max_sessions = static_cast<std::uint32_t>(sessions);
    opt.queue.max_queue_chunks = static_cast<std::uint32_t>(args.get_int("queue-chunks"));
    opt.queue.coalesce_bytes = static_cast<std::uint64_t>(args.get_bytes("coalesce"));
    opt.background = args.get_bool("background");
    if (args.get_bool("stats")) opt.engine.telemetry.metrics = &registry;

    auto service = serve::StreamService::create(
        ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
    ACGPU_CHECK(service.is_ok(), service.status().to_string());
    serve::StreamService& srv = service.value();

    std::vector<serve::SessionId> ids(sessions);
    std::vector<std::string> streams(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      ids[i] = srv.open().value();
      streams[i] = make_stream(seed, i, stream_bytes);
    }

    // Interleaved replay: one chunk per session per round, so every
    // superbatch carries many sessions' bytes side by side.
    Stopwatch clock;
    std::uint64_t overloaded = 0;
    for (std::size_t pos = 0; pos < stream_bytes; pos += chunk) {
      for (std::size_t i = 0; i < sessions; ++i) {
        const std::string_view slice =
            std::string_view(streams[i]).substr(pos, chunk);
        for (;;) {
          const Status s = srv.feed(ids[i], slice);
          if (s.is_ok()) break;
          ACGPU_CHECK(s.code() == StatusCode::kOverloaded, s.to_string());
          ++overloaded;  // bounded queue pushed back; let the worker catch up
          std::this_thread::yield();
        }
      }
    }
    ACGPU_CHECK(srv.drain().is_ok(), "drain failed");
    const double replay_s = clock.seconds();

    // Verify every session against a serial host scan of its own stream.
    std::uint64_t total_matches = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
      std::vector<ac::Match> expected = ac::find_all(srv.dfa(), streams[i]);
      ac::normalize_matches(expected);
      auto got = srv.poll(ids[i]).value();
      ac::normalize_matches(got);
      ACGPU_CHECK(got == expected, "session " << ids[i] << " diverged: "
                                              << got.size() << " matches vs "
                                              << expected.size() << " expected");
      total_matches += got.size();
    }

    const serve::ServiceStats stats = srv.stats();
    std::printf(
        "replayed %zu sessions x %s in %s: %llu matches, %llu batches "
        "(%llu host fallbacks), %llu spanning, backpressure %llu, "
        "max queue depth %llu\n",
        sessions, format_bytes(stream_bytes).c_str(),
        format_seconds(replay_s).c_str(),
        static_cast<unsigned long long>(total_matches),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.host_fallbacks),
        static_cast<unsigned long long>(stats.spanning_matches),
        static_cast<unsigned long long>(stats.feeds_rejected),
        static_cast<unsigned long long>(stats.max_queue_depth_chunks));
    std::puts("every session matched its serial reference");

    if (args.get_bool("soak")) {
      ACGPU_CHECK(stats.queued_chunks == 0, "drain left work queued");
      ACGPU_CHECK(stats.feeds_rejected >= 1,
                  "soak expected backpressure but the queue never filled; "
                  "lower --queue-chunks or raise --sessions");
      ACGPU_CHECK(stats.feeds_rejected == overloaded, "rejection count skew");
      std::puts("soak ok: backpressure observed, clean drain");
    }
    if (args.get_bool("stats")) registry.snapshot().write_table(std::cout);
    srv.shutdown();
  } catch (const Error& e) {
    std::fprintf(stderr, "acgpu_serve: %s\n", e.what());
    return 2;
  }
  return 0;
}
