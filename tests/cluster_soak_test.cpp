// Cluster soak: thousands of concurrent sessions sharded over 4 background
// devices, fed from multiple threads, with a device failure injected
// mid-soak. Proves the rebalance moves every homed session, the failed
// shard's accepted bytes drain exactly (host-DFA fallback), and every
// session's final match stream equals its serial reference — zero lost,
// zero duplicated.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ac/serial_matcher.h"
#include "cluster/router.h"
#include "util/rng.h"

namespace acgpu::cluster {
namespace {

constexpr std::size_t kSessions = 2048;
constexpr std::size_t kFeeders = 8;
constexpr std::size_t kChunk = 64;
constexpr std::size_t kBytesPerSession = 512;

std::string session_text(std::size_t session) {
  Rng rng(derive_seed(0xc5a0, session));
  std::string text(kBytesPerSession, '\0');
  for (char& c : text) c = "hersabx"[rng.next_below(7)];
  return text;
}

TEST(ClusterSoak, DeviceFailureMidSoakLosesNothing) {
  ClusterOptions opt;
  opt.devices = 4;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.background = true;  // every shard runs its own pump thread
  opt.max_sessions_per_shard = kSessions;  // no LRU eviction mid-soak
  opt.queue.coalesce_bytes = 64u << 10;
  auto router =
      Router::create(ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  Router& cluster = router.value();

  std::vector<serve::SessionId> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i)
    ids[i] = cluster.open().value();
  // 2048 sessions over 4 shards: least-loaded placement gives 512 each.
  for (std::uint32_t k = 0; k < 4; ++k)
    ASSERT_EQ(cluster.shard_stats(k).value().homed_sessions, kSessions / 4);

  std::atomic<std::size_t> chunks_done{0};
  constexpr std::size_t kTotalChunks =
      kSessions * (kBytesPerSession / kChunk);
  std::atomic<bool> failure_injected{false};

  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      std::vector<std::string> texts;
      for (std::size_t i = f; i < kSessions; i += kFeeders)
        texts.push_back(session_text(i));
      for (std::size_t pos = 0; pos < kBytesPerSession; pos += kChunk) {
        for (std::size_t slot = 0; slot < texts.size(); ++slot) {
          const std::size_t session = f + slot * kFeeders;
          const std::string_view chunk =
              std::string_view(texts[slot]).substr(pos, kChunk);
          for (;;) {
            const Status s = cluster.feed(ids[session], chunk);
            if (s.is_ok()) break;
            ASSERT_EQ(s.code(), StatusCode::kOverloaded) << s.to_string();
            std::this_thread::yield();
          }
          chunks_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Failure injector: once the soak is mid-flight, fail shard 2. Feeds keep
  // flowing throughout — the router re-homes session traffic transparently.
  std::thread injector([&] {
    while (chunks_done.load(std::memory_order_relaxed) < kTotalChunks / 2)
      std::this_thread::yield();
    ASSERT_TRUE(cluster.mark_failed(2).is_ok());
    failure_injected.store(true, std::memory_order_release);
  });

  for (auto& t : feeders) t.join();
  injector.join();
  ASSERT_TRUE(failure_injected.load(std::memory_order_acquire));
  ASSERT_TRUE(cluster.drain().is_ok());

  const RouterStats stats = cluster.stats();
  EXPECT_EQ(stats.healthy_shards, 3u);
  EXPECT_GE(stats.rebalances, 1u);
  EXPECT_EQ(stats.sessions_rebalanced, kSessions / 4)
      << "every session homed on the failed shard must migrate";
  EXPECT_EQ(cluster.shard_stats(2).value().homed_sessions, 0u);
  EXPECT_EQ(stats.sessions_live, kSessions);

  // The exactness bar: every session, including every migrated one, ends
  // with exactly its serial-reference match multiset.
  std::size_t checked_migrated = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    std::vector<ac::Match> expected =
        ac::find_all(cluster.dfa(), session_text(i));
    ac::normalize_matches(expected);
    auto got = cluster.poll(ids[i]);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    ASSERT_EQ(got.value(), expected) << "session " << ids[i];
    if (cluster.shard_of(ids[i]).value() != 2 &&
        (ids[i] >> 48) == 3)  // originally homed on shard 2
      ++checked_migrated;
  }
  EXPECT_EQ(checked_migrated, kSessions / 4);

  cluster.shutdown();
  cluster.shutdown();  // idempotent
}

}  // namespace
}  // namespace acgpu::cluster
