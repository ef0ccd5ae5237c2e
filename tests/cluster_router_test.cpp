// cluster::Router: session affinity and globally unique ids, the bulk
// scatter/gather scan with exactly-once seam semantics, fail-stop and
// graceful rebalances with zero lost/duplicated matches, topology guards,
// and the router.*/device.N.* telemetry series.
#include "cluster/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ac/serial_matcher.h"
#include "kernels/device_dfa.h"
#include "telemetry/metrics_registry.h"
#include "util/rng.h"
#include "workload/dna.h"

namespace acgpu::cluster {
namespace {

ClusterOptions fast_cluster(std::uint32_t devices) {
  ClusterOptions opt;
  opt.devices = devices;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  return opt;
}

Router make_router(const std::vector<std::string>& patterns,
                   const ClusterOptions& opt) {
  auto r = Router::create(ac::PatternSet(patterns), opt);
  ACGPU_CHECK(r.is_ok(), r.status().to_string());
  return std::move(r).value();
}

std::vector<ac::Match> reference(const Router& router, const std::string& text) {
  std::vector<ac::Match> expected = ac::find_all(router.dfa(), text);
  ac::normalize_matches(expected);
  return expected;
}

std::string herd_text() {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "ushers and sheep hide his herbs ";
  return text;
}

/// `count` random lowercase words of 6-16 letters.
std::vector<std::string> random_words(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> words(count);
  for (std::string& w : words) {
    w.resize(rng.next_in(6, 16));
    for (char& c : w) c = static_cast<char>('a' + rng.next_below(26));
  }
  return words;
}

/// Random lowercase text of `bytes`, a dictionary word planted every ~200.
std::string planted_text(const std::vector<std::string>& words, std::size_t bytes,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::string text(bytes, 'a');
  for (char& c : text) c = static_cast<char>('a' + rng.next_below(26));
  for (std::size_t pos = 0; pos + 16 < bytes; pos += rng.next_in(100, 300)) {
    const std::string& w = words[rng.next_below(words.size())];
    text.replace(pos, w.size(), w);
  }
  return text;
}

TEST(ClusterRouter, ValidatesOptions) {
  ClusterOptions opt = fast_cluster(0);
  EXPECT_FALSE(opt.validate().is_ok());
  opt = fast_cluster(65);
  EXPECT_FALSE(opt.validate().is_ok());
  opt = fast_cluster(2);
  opt.engine.telemetry.metrics_prefix = "mine.";
  EXPECT_FALSE(opt.validate().is_ok());
  // The Router names shard k's device "device.<k>"; a template name would
  // give every shard the same one.
  opt = fast_cluster(2);
  opt.device.name = "mine";
  EXPECT_FALSE(opt.validate().is_ok());
  EXPECT_TRUE(fast_cluster(2).validate().is_ok());
  EXPECT_FALSE(
      Router::create(ac::PatternSet(std::vector<std::string>{}), fast_cluster(2))
          .is_ok());
}

TEST(ClusterRouter, OpenSpreadsSessionsAndIdsAreGloballyUnique) {
  Router router = make_router({"he"}, fast_cluster(4));
  std::set<serve::SessionId> ids;
  for (int i = 0; i < 8; ++i) {
    const serve::SessionId id = router.open().value();
    EXPECT_TRUE(ids.insert(id).second) << "duplicate session id " << id;
  }
  // Least-loaded placement: 8 sessions over 4 shards = exactly 2 each.
  for (std::uint32_t k = 0; k < 4; ++k)
    EXPECT_EQ(router.shard_stats(k).value().homed_sessions, 2u);
  // Ids are deterministic: shard k's n-th session is ((k+1)<<48)+n.
  EXPECT_TRUE(ids.count((1ull << 48) + 1));
  EXPECT_TRUE(ids.count((2ull << 48) + 1));
  EXPECT_TRUE(ids.count((3ull << 48) + 2));
  EXPECT_TRUE(ids.count((4ull << 48) + 2));
}

TEST(ClusterRouter, SessionPathMatchesSerialReference) {
  Router router = make_router({"he", "she", "his", "hers"}, fast_cluster(2));
  const std::string text = herd_text();
  const serve::SessionId id = router.open().value();
  for (std::size_t pos = 0; pos < text.size(); pos += 7)
    ASSERT_TRUE(router.feed(id, std::string_view(text).substr(pos, 7)).is_ok());
  ASSERT_TRUE(router.drain().is_ok());
  EXPECT_EQ(router.poll(id).value(), reference(router, text));
}

TEST(ClusterRouter, BulkScanMatchesSerialReferenceAcrossDeviceCounts) {
  const std::string text = herd_text();
  for (std::uint32_t devices : {1u, 2u, 3u, 4u}) {
    Router router =
        make_router({"he", "she", "his", "hers", "sheep"}, fast_cluster(devices));
    const auto scan = router.scan(text);
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_EQ(scan.value().devices_used, devices);
    EXPECT_EQ(scan.value().matches, reference(router, text))
        << "devices=" << devices;
    EXPECT_EQ(scan.value().per_device_seconds.size(), devices);
  }
}

TEST(ClusterRouter, BulkScanSeamStraddlersExactlyOnce) {
  // A long pattern placed to straddle every slab seam for 2..5 devices.
  const std::string needle = "abcdefghij";
  std::string text(1000, 'x');
  for (std::size_t pos : {245u, 495u, 745u, 330u, 660u})
    text.replace(pos, needle.size(), needle);
  for (std::uint32_t devices : {2u, 3u, 4u, 5u}) {
    Router router = make_router({needle}, fast_cluster(devices));
    const auto scan = router.scan(text);
    ASSERT_TRUE(scan.is_ok());
    EXPECT_EQ(scan.value().matches, reference(router, text))
        << "devices=" << devices;
  }
}

TEST(ClusterRouter, EmptyScanAndEmptyPollAreFine) {
  Router router = make_router({"he"}, fast_cluster(2));
  EXPECT_TRUE(router.scan("").value().matches.empty());
  const serve::SessionId id = router.open().value();
  EXPECT_TRUE(router.poll(id).value().empty());
  EXPECT_EQ(router.feed(999, "x").code(), StatusCode::kInvalidArgument);
}

TEST(ClusterRouter, MarkFailedMigratesSessionsWithoutLosingMatches) {
  Router router = make_router({"he", "she", "hers"}, fast_cluster(2));
  const std::string text = herd_text();
  const std::vector<ac::Match> expected = reference(router, text);

  // Two sessions, one per shard; feed the first half to both.
  const serve::SessionId a = router.open().value();
  const serve::SessionId b = router.open().value();
  EXPECT_NE(router.shard_of(a).value(), router.shard_of(b).value());
  const std::size_t half = text.size() / 2;
  for (std::size_t pos = 0; pos < half; pos += 7) {
    ASSERT_TRUE(router.feed(a, std::string_view(text).substr(pos, std::min<std::size_t>(7, half - pos))).is_ok());
    ASSERT_TRUE(router.feed(b, std::string_view(text).substr(pos, std::min<std::size_t>(7, half - pos))).is_ok());
  }

  // Fail the shard homing `a` mid-stream; its session must migrate.
  const std::uint32_t failed_shard = router.shard_of(a).value();
  ASSERT_TRUE(router.mark_failed(failed_shard).is_ok());
  ASSERT_TRUE(router.mark_failed(failed_shard).is_ok());  // idempotent
  EXPECT_NE(router.shard_of(a).value(), failed_shard);
  EXPECT_EQ(router.stats().rebalances, 1u);
  EXPECT_EQ(router.stats().sessions_rebalanced, 1u);
  EXPECT_EQ(router.stats().healthy_shards, 1u);

  // Both streams finish on the surviving shard — same id, same matches.
  for (std::size_t pos = half; pos < text.size(); pos += 7) {
    ASSERT_TRUE(router.feed(a, std::string_view(text).substr(pos, 7)).is_ok());
    ASSERT_TRUE(router.feed(b, std::string_view(text).substr(pos, 7)).is_ok());
  }
  ASSERT_TRUE(router.drain().is_ok());
  EXPECT_EQ(router.poll(a).value(), expected);
  EXPECT_EQ(router.poll(b).value(), expected);
}

TEST(ClusterRouter, MigrationPreservesBoundarySpanningMatches) {
  // The carried DFA state must travel with the session: "hers" split as
  // "he" before the failure and "rs" after it is found iff the export
  // snapshot carried the automaton state across devices.
  Router router = make_router({"hers"}, fast_cluster(2));
  const serve::SessionId id = router.open().value();
  ASSERT_TRUE(router.feed(id, "xxhe").is_ok());
  ASSERT_TRUE(router.drain().is_ok());  // state now mid-pattern
  const std::uint32_t home = router.shard_of(id).value();
  ASSERT_TRUE(router.mark_failed(home).is_ok());
  ASSERT_TRUE(router.feed(id, "rsxx").is_ok());
  ASSERT_TRUE(router.drain().is_ok());
  const std::vector<ac::Match> expected = {{5, 0}};
  EXPECT_EQ(router.poll(id).value(), expected);
}

TEST(ClusterRouter, LastHealthyShardCannotFailOrDrain) {
  Router router = make_router({"he"}, fast_cluster(2));
  ASSERT_TRUE(router.mark_failed(0).is_ok());
  EXPECT_EQ(router.mark_failed(1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.drain_shard(1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.mark_failed(7).code(), StatusCode::kInvalidArgument);
  // Restore shard 0 and the cluster is 2-healthy again.
  ASSERT_TRUE(router.restore(0).is_ok());
  EXPECT_EQ(router.stats().healthy_shards, 2u);
  EXPECT_TRUE(router.mark_failed(1).is_ok());
}

TEST(ClusterRouter, FailedShardExcludedFromBulkScanThenReadmitted) {
  const std::string text = herd_text();
  Router router = make_router({"he", "she"}, fast_cluster(3));
  ASSERT_TRUE(router.mark_failed(1).is_ok());
  const auto degraded = router.scan(text);
  ASSERT_TRUE(degraded.is_ok());
  EXPECT_EQ(degraded.value().devices_used, 2u);
  EXPECT_EQ(degraded.value().matches, reference(router, text));
  ASSERT_TRUE(router.restore(1).is_ok());
  EXPECT_EQ(router.scan(text).value().devices_used, 3u);
}

TEST(ClusterRouter, DrainShardIsGracefulAndNewSessionsAvoidIt) {
  Router router = make_router({"he"}, fast_cluster(2));
  const serve::SessionId id = router.open().value();
  const std::uint32_t home = router.shard_of(id).value();
  ASSERT_TRUE(router.feed(id, "ushers").is_ok());
  ASSERT_TRUE(router.drain_shard(home).is_ok());
  EXPECT_NE(router.shard_of(id).value(), home);
  // The drained shard's device is still healthy — restore() is about
  // admission, not device health.
  EXPECT_FALSE(router.shard_stats(home).value().failed);
  EXPECT_TRUE(router.shard_stats(home).value().draining);
  for (int i = 0; i < 4; ++i)
    EXPECT_NE(router.shard_of(router.open().value()).value(), home);
  ASSERT_TRUE(router.drain().is_ok());
  EXPECT_EQ(router.poll(id).value().size(), 1u);
}

TEST(ClusterRouter, CloseForgetsTheSession) {
  Router router = make_router({"he"}, fast_cluster(2));
  const serve::SessionId id = router.open().value();
  ASSERT_TRUE(router.close(id).is_ok());
  EXPECT_EQ(router.feed(id, "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.close(id).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.stats().sessions_live, 0u);
}

TEST(ClusterRouter, ShutdownStopsAdmission) {
  Router router = make_router({"he"}, fast_cluster(2));
  const serve::SessionId id = router.open().value();
  ASSERT_TRUE(router.feed(id, "ushers").is_ok());
  router.shutdown();
  router.shutdown();  // idempotent
  EXPECT_FALSE(router.open().is_ok());
  EXPECT_FALSE(router.scan("x").is_ok());
  // Accepted work drained on shutdown and is still pollable.
  EXPECT_EQ(router.poll(id).value().size(), 1u);
}

TEST(ClusterRouter, PublishesRouterAndPerDeviceSeries) {
  telemetry::MetricsRegistry registry;
  ClusterOptions opt = fast_cluster(2);
  opt.metrics = &registry;
  Router router = make_router({"he", "she"}, opt);
  const serve::SessionId id = router.open().value();
  ASSERT_TRUE(router.feed(id, "ushers ushers").is_ok());
  ASSERT_TRUE(router.drain().is_ok());
  ASSERT_TRUE(router.scan(herd_text()).is_ok());
  ASSERT_TRUE(router.mark_failed(router.shard_of(id).value()).is_ok());

  const auto snapshot = registry.snapshot();
  for (const char* name :
       {"router.sessions.opened", "router.feeds", "router.feed.bytes",
        "router.scans", "router.rebalances", "router.sessions.rebalanced",
        "router.matches.merged", "router.shards", "router.healthy_shards",
        "router.sessions.live", "router.scan.makespan_seconds",
        "router.scan.throughput_gbps", "device.0.serve.sessions.opened",
        "device.1.serve.sessions.opened", "device.0.pipeline.runs",
        "device.1.pipeline.runs"})
    EXPECT_TRUE(snapshot.value(name).has_value()) << name;
  EXPECT_EQ(snapshot.value("router.shards"), 2.0);
  EXPECT_EQ(snapshot.value("router.healthy_shards"), 1.0);
  EXPECT_EQ(snapshot.value("router.rebalances"), 1.0);
  // Classic un-prefixed single-device series must NOT appear: every shard
  // publishes under its own device.N. namespace.
  EXPECT_FALSE(snapshot.value("serve.sessions.opened").has_value());
  EXPECT_FALSE(snapshot.value("pipeline.runs").has_value());
}

TEST(ClusterRouter, CreateFailsCleanlyWhenTheAutomatonDoesNotFit) {
  ClusterOptions opt = fast_cluster(2);
  // The paper's dictionary: 10 states x 8 words (6 byte classes, padded to
  // a texture line), 320 B.
  opt.device.memory_bytes = 256;
  const auto r = Router::create(ac::PatternSet({"he", "she", "his", "hers"}), opt);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(r.status().message().find("256 B free"), std::string::npos)
      << r.status().to_string();
}

TEST(ClusterRouter, DictionaryLargerThanHalfADeviceServesBothPaths) {
  // Sessions and bulk scans share one upload per device. An STT past half
  // the device used to serve sessions and fail every bulk scan, whose
  // second upload ran out of memory.
  const std::vector<std::string> words = random_words(2000, 17);
  const std::size_t upload =
      kernels::DeviceDfa::upload_bytes(ac::build_dfa(ac::PatternSet(words), 8));
  const std::size_t device_bytes = upload + (2u << 20);
  ASSERT_GT(2 * upload, device_bytes);
  const std::string text = planted_text(words, 48u << 10, 5);

  for (std::uint32_t devices : {1u, 2u}) {
    ClusterOptions opt = fast_cluster(devices);
    opt.device.memory_bytes = device_bytes;
    opt.engine.batch_bytes = 16u << 10;
    Router router = make_router(words, opt);
    const std::vector<ac::Match> expected = reference(router, text);
    ASSERT_FALSE(expected.empty());

    const serve::SessionId id = router.open().value();
    for (std::size_t pos = 0; pos < text.size(); pos += 4096)
      ASSERT_TRUE(router.feed(id, std::string_view(text).substr(pos, 4096)).is_ok());
    ASSERT_TRUE(router.drain().is_ok());
    EXPECT_EQ(router.poll(id).value(), expected) << "devices=" << devices;
    EXPECT_EQ(router.shard_stats(0).value().service.host_fallbacks, 0u);

    const auto scan = router.scan(text);
    ASSERT_TRUE(scan.is_ok()) << "devices=" << devices << ": "
                              << scan.status().to_string();
    EXPECT_FALSE(scan.value().host_fallback);
    EXPECT_EQ(scan.value().devices_used, devices);
    EXPECT_EQ(scan.value().matches, expected) << "devices=" << devices;
  }
}

TEST(ClusterRouter, BulkScanDuringABackgroundSessionScanIsExact) {
  // Regression: Router::scan used to upload a second automaton on first use
  // without the device's scan mutex. When the shard's worker was inside a
  // pipeline run at that moment, the run's closing release dropped the
  // arena's bump pointer below the new upload, and the next run's staging
  // and match buffers overwrote it. Sizes: the worker's run of a 64 KB
  // superbatch spans ~400 KB of arena (four 64 KB staging slots plus small
  // match buffers at capacity 8), while a 2 MB bulk scan stages through
  // 256 KB slots, so its first H2D copies reach past that high-water mark.
  const std::string genome = workload::make_dna_sequence(2u << 20, 29);
  std::vector<std::string> motifs;
  for (std::uint32_t len = 8; len <= 12; ++len)
    for (const std::string_view m :
         workload::extract_dna_motifs(genome, 40, len, 0.05, 31 + len))
      motifs.emplace_back(m);
  ClusterOptions opt = fast_cluster(1);
  opt.background = true;
  opt.engine.match_capacity = 8;
  Router router = make_router(motifs, opt);

  const std::string session_text = genome.substr(0, 64u << 10);
  const serve::SessionId id = router.open().value();
  ASSERT_TRUE(router.feed(id, session_text).is_ok());
  // Scan while the worker is inside its run: once it has taken the
  // superbatch, the queue is empty.
  while (router.shard_stats(0).value().service.queued_chunks > 0)
    std::this_thread::yield();
  const auto scan = router.scan(genome);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_FALSE(scan.value().host_fallback);
  EXPECT_EQ(scan.value().matches, reference(router, genome));
  ASSERT_TRUE(router.drain().is_ok());
  EXPECT_EQ(router.poll(id).value(), reference(router, session_text));
}

TEST(ClusterRouter, OverflowingScanFallsBackToExactHostMatches) {
  // Every byte ends a match (all 256 single bytes), so a thread's 32 B chunk
  // is its scan bound S and fills S record slots: capacity S keeps the scan
  // on the device, capacity S - 1 overflows it onto the host DFA.
  std::vector<std::string> every_byte;
  for (int b = 0; b < 256; ++b) every_byte.emplace_back(1, static_cast<char>(b));
  Rng rng(67);
  std::string text(20000, '\0');
  for (char& c : text) c = static_cast<char>(rng.next_below(256));
  for (const std::uint32_t capacity : {32u, 31u}) {
    ClusterOptions opt = fast_cluster(2);
    opt.engine.chunk_bytes = 32;
    opt.engine.match_capacity = capacity;
    Router router = make_router(every_byte, opt);
    const auto scan = router.scan(text);
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    SCOPED_TRACE(capacity);
    EXPECT_EQ(scan.value().host_fallback, capacity < 32);
    EXPECT_EQ(scan.value().overflowed, capacity < 32);
    EXPECT_EQ(scan.value().matches, reference(router, text));
    EXPECT_EQ(scan.value().matches.size(), text.size());
  }
}

TEST(ClusterRouter, ScanBoundPastTheRecordWordIsServedFromTheHost) {
  // 5,000 three-letter words have over 5,000 DFA states; with a 1 MiB chunk
  // their records need more than 2^32 codes, so every slab's Engine::scan
  // fails kCapacityExceeded and the Router scans exactly on the host. The
  // chip's shared memory admits a 32-thread block of 1 MiB chunks, so the
  // record word, not staging, is what refuses.
  std::vector<std::string> words;
  for (int i = 0; i < 5000; ++i)
    words.push_back({static_cast<char>('a' + i / 676 % 26),
                     static_cast<char>('a' + i / 26 % 26), static_cast<char>('a' + i % 26)});
  ClusterOptions opt = fast_cluster(2);
  opt.engine.chunk_bytes = 1u << 20;
  opt.device.gpu.shared_mem_bytes = 64u << 20;
  Router router = make_router(words, opt);
  const std::string text = herd_text();
  const auto scan = router.scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_TRUE(scan.value().host_fallback);
  EXPECT_EQ(scan.value().matches, reference(router, text));
  EXPECT_FALSE(scan.value().matches.empty());
}

TEST(ClusterRouter, PatternTooLongToStageIsServedFromTheHost) {
  // A 600-byte pattern needs 600 B chunks, and a 32-thread block of them
  // (with the 6-bit table and exchange) outgrows the chip's 16 KB of shared
  // memory: the Engine refuses every scan before it stages anything, and
  // the serve and cluster tiers answer exactly from the host DFA.
  std::string long_pattern;
  for (int i = 0; i < 600; ++i) long_pattern += static_cast<char>('a' + i % 7);
  const std::vector<std::string> patterns = {long_pattern, "he", "she"};
  const std::string text = herd_text() + long_pattern + herd_text();
  const ClusterOptions opt = fast_cluster(2);
  ASSERT_EQ(opt.device.gpu.shared_mem_bytes, 16u * 1024);

  Device device = Device::create(opt.device).value();
  Engine engine = Engine::create(device, ac::PatternSet(patterns), opt.engine).value();
  const std::size_t allocated = device.memory().allocated();
  const auto refused = engine.scan(text);
  EXPECT_EQ(refused.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(refused.status().message().find("even at 32 threads/block"), std::string::npos)
      << refused.status().to_string();
  EXPECT_EQ(device.memory().allocated(), allocated);

  Router router = make_router(patterns, opt);
  const std::vector<ac::Match> expected = reference(router, text);
  const ac::Match planted{herd_text().size() + long_pattern.size() - 1, 0};
  ASSERT_NE(std::find(expected.begin(), expected.end(), planted), expected.end());
  const auto scan = router.scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_TRUE(scan.value().host_fallback);
  EXPECT_EQ(scan.value().matches, expected);

  serve::ServeOptions sopt;
  sopt.engine = opt.engine;
  sopt.device = opt.device;
  serve::StreamService service =
      serve::StreamService::create(ac::PatternSet(patterns), sopt).value();
  const serve::SessionId id = service.open().value();
  for (std::size_t pos = 0; pos < text.size(); pos += 1000)
    ASSERT_TRUE(service.feed(id, std::string_view(text).substr(pos, 1000)).is_ok());
  ASSERT_TRUE(service.drain().is_ok());
  std::vector<ac::Match> delivered = service.poll(id).value();
  ac::normalize_matches(delivered);
  EXPECT_EQ(delivered, expected);
  EXPECT_GE(service.stats().host_fallbacks, 1u);
}

TEST(ClusterRouter, StatsRollUp) {
  Router router = make_router({"he"}, fast_cluster(4));
  for (int i = 0; i < 6; ++i) router.open().value();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.healthy_shards, 4u);
  EXPECT_EQ(stats.sessions_opened, 6u);
  EXPECT_EQ(stats.sessions_live, 6u);
  EXPECT_EQ(router.shard_count(), 4u);
  // Device identities are distinct, names are per-shard deterministic.
  std::set<std::uint32_t> device_ids;
  for (std::uint32_t k = 0; k < 4; ++k) {
    const ShardStats shard = router.shard_stats(k).value();
    EXPECT_EQ(shard.shard, k);
    device_ids.insert(shard.device_id);
    EXPECT_EQ(shard.device_name, "device." + std::to_string(k));
  }
  EXPECT_EQ(device_ids.size(), 4u);
}

}  // namespace
}  // namespace acgpu::cluster
