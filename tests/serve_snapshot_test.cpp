// Session export/import (the cluster rebalance primitive): snapshots carry
// id, carried boundary state, stats, quotas, and unpolled matches across
// services; export refuses sessions with undrained work; import refuses
// live-id collisions and DFA states outside the importing DFA.
#include <gtest/gtest.h>

#include <string>

#include "ac/serial_matcher.h"
#include "serve/service.h"

namespace acgpu::serve {
namespace {

ServeOptions fast_options() {
  ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  return opt;
}

StreamService make_service(const std::vector<std::string>& patterns,
                           const ServeOptions& opt) {
  auto r = StreamService::create(ac::PatternSet(patterns), opt);
  ACGPU_CHECK(r.is_ok(), r.status().to_string());
  return std::move(r).value();
}

TEST(ServeSnapshot, ExportImportPreservesIdStateAndUnpolledMatches) {
  StreamService a = make_service({"hers"}, fast_options());
  StreamService b = make_service({"hers"}, fast_options());

  const SessionId id = a.open().value();
  // One full match (unpolled) + a dangling "he" prefix carried as state.
  ASSERT_TRUE(a.feed(id, "xhersxxhe").is_ok());
  ASSERT_TRUE(a.drain().is_ok());

  auto snapshot = a.export_session(id);
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  EXPECT_EQ(snapshot.value().id, id);
  // Export closes the source side.
  EXPECT_EQ(a.poll(id).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.stats().sessions_exported, 1u);

  ASSERT_TRUE(b.import_session(snapshot.value()).is_ok());
  EXPECT_EQ(b.stats().sessions_imported, 1u);
  // The prefix completes on the importing service at the right global offset.
  ASSERT_TRUE(b.feed(id, "rs").is_ok());
  ASSERT_TRUE(b.drain().is_ok());
  const std::vector<ac::Match> expected = {{4, 0}, {10, 0}};
  auto got = b.poll(id).value();
  ac::normalize_matches(got);
  EXPECT_EQ(got, expected);
}

TEST(ServeSnapshot, ExportRequiresDrainedSession) {
  ServeOptions opt = fast_options();
  opt.queue.max_queue_chunks = 64;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "abab").is_ok());
  // Queued chunk -> export refuses; the session stays open and intact.
  EXPECT_EQ(srv.export_session(id).status().code(), StatusCode::kOverloaded);
  ASSERT_TRUE(srv.drain().is_ok());
  EXPECT_TRUE(srv.export_session(id).is_ok());
}

TEST(ServeSnapshot, ExportUnknownIdIsInvalidArgument) {
  StreamService srv = make_service({"ab"}, fast_options());
  EXPECT_EQ(srv.export_session(42).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSnapshot, ImportRejectsLiveIdCollision) {
  StreamService a = make_service({"ab"}, fast_options());
  StreamService b = make_service({"ab"}, fast_options());
  const SessionId id = a.open().value();
  b.open().value();  // same deterministic id on an identical service
  ASSERT_TRUE(a.drain().is_ok());
  const auto snapshot = a.export_session(id).value();
  EXPECT_EQ(b.import_session(snapshot).code(), StatusCode::kInvalidArgument);
}

TEST(ServeSnapshot, ImportRejectsOutOfRangeDfaState) {
  // The carried state indexes the STT on the next feed, so a hostile or
  // foreign state must be refused before the session is adopted.
  StreamService a = make_service({"ab"}, fast_options());
  StreamService b = make_service({"hers", "his"}, fast_options());
  const SessionId live = b.open().value();
  ASSERT_TRUE(b.feed(live, "hi").is_ok());
  a.open().value();
  const SessionId id = a.open().value();  // id 2: no collision with b's 1
  SessionSnapshot snapshot = a.export_session(id).value();
  const auto states = static_cast<std::int32_t>(b.dfa().state_count());
  for (const std::int32_t bad : {-5, states}) {
    snapshot.dfa_state = bad;
    EXPECT_EQ(b.import_session(snapshot).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(b.stats().sessions_imported, 0u);

  // The live session still serves: "his" completes across its two feeds.
  ASSERT_TRUE(b.feed(live, "s").is_ok());
  ASSERT_TRUE(b.drain().is_ok());
  const std::vector<ac::Match> expected = {{2, 1}};
  EXPECT_EQ(b.poll(live).value(), expected);

  // The same snapshot with the last state in range is adopted.
  snapshot.dfa_state = states - 1;
  EXPECT_TRUE(b.import_session(snapshot).is_ok());
}

TEST(ServeSnapshot, QuotasSurviveMigration) {
  ServeOptions opt = fast_options();
  opt.session_limits.max_bytes = 6;
  StreamService a = make_service({"ab"}, opt);
  StreamService b = make_service({"ab"}, opt);
  const SessionId id = a.open().value();
  ASSERT_TRUE(a.feed(id, "abab").is_ok());
  ASSERT_TRUE(a.drain().is_ok());
  const auto snapshot = a.export_session(id).value();
  ASSERT_TRUE(b.import_session(snapshot).is_ok());
  ASSERT_TRUE(b.feed(id, "ab").is_ok());  // 6 bytes total: at quota
  EXPECT_EQ(b.feed(id, "a").code(), StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace acgpu::serve
