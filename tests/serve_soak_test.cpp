// Short soak: 64 concurrent sessions fed from multiple threads through a
// deliberately tiny bounded queue in background mode. Proves no deadlock,
// real backpressure (kOverloaded observed), a clean drain, and per-session
// exactness under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ac/serial_matcher.h"
#include "serve/service.h"
#include "util/rng.h"

namespace acgpu::serve {
namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kFeeders = 8;
constexpr std::size_t kChunk = 256;

std::string session_text(std::size_t session) {
  Rng rng(derive_seed(0x50a4, session));
  std::string text(6 * 1024, '\0');
  for (char& c : text) c = "hersabx"[rng.next_below(7)];
  return text;
}

TEST(ServeSoak, SixtyFourSessionsBoundedQueueCleanDrain) {
  ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.background = true;            // one worker owns the engine
  opt.max_sessions = kSessions;     // exactly enough: no eviction mid-soak
  opt.queue.max_queue_chunks = 4;         // tiny queue -> rejection is near-certain
  opt.queue.coalesce_bytes = 8 * kChunk;
  auto service = StreamService::create(
      ac::PatternSet({"he", "she", "his", "hers", "ab"}), opt);
  ASSERT_TRUE(service.is_ok()) << service.status().to_string();
  StreamService& srv = service.value();

  std::vector<SessionId> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) ids[i] = srv.open().value();

  std::atomic<std::uint64_t> retries{0};
  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      // Each feeder owns a disjoint slice of the sessions and round-robins
      // chunks across them, so per-session feed order is still sequential.
      std::vector<std::string> texts;
      for (std::size_t i = f; i < kSessions; i += kFeeders)
        texts.push_back(session_text(i));
      for (std::size_t pos = 0; pos < texts[0].size(); pos += kChunk) {
        for (std::size_t slot = 0; slot < texts.size(); ++slot) {
          const std::size_t session = f + slot * kFeeders;
          const std::string_view chunk =
              std::string_view(texts[slot]).substr(pos, kChunk);
          for (;;) {
            const Status s = srv.feed(ids[session], chunk);
            if (s.is_ok()) break;
            ASSERT_EQ(s.code(), StatusCode::kOverloaded) << s.to_string();
            retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();  // worker is scanning; try again
          }
        }
      }
    });
  }
  for (auto& t : feeders) t.join();

  ASSERT_TRUE(srv.drain().is_ok());
  const ServiceStats stats = srv.stats();
  EXPECT_EQ(stats.queued_chunks, 0u) << "drain left work behind";
  EXPECT_GE(stats.feeds_rejected, 1u) << "soak never hit backpressure";
  EXPECT_EQ(stats.feeds_rejected, retries.load());
  EXPECT_LE(stats.max_queue_depth_chunks, 4u) << "queue bound violated";
  EXPECT_EQ(stats.sessions_evicted, 0u);

  // Every session's matches must equal its own serial reference: no loss,
  // no cross-session bleed through the shared superbatches.
  for (std::size_t i = 0; i < kSessions; ++i) {
    std::vector<ac::Match> expected = ac::find_all(srv.dfa(), session_text(i));
    ac::normalize_matches(expected);
    auto got = srv.poll(ids[i]).value();
    ac::normalize_matches(got);
    ASSERT_EQ(got, expected) << "session " << ids[i];
  }

  srv.shutdown();  // second drain + join must be clean and idempotent
  srv.shutdown();
}

}  // namespace
}  // namespace acgpu::serve
