// StreamService lifecycle: admission policies and backpressure, LRU
// eviction wired through the scheduler, drain semantics, stats, and the
// serve.* telemetry series.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

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

std::vector<ac::Match> drained_matches(StreamService& srv, SessionId id) {
  EXPECT_TRUE(srv.drain().is_ok());
  auto polled = srv.poll(id);
  EXPECT_TRUE(polled.is_ok()) << polled.status().to_string();
  auto out = std::move(polled).value();
  ac::normalize_matches(out);
  return out;
}

TEST(ServeService, FeedsMatchSingleShotScan) {
  StreamService srv = make_service({"he", "she", "his", "hers"}, fast_options());
  const std::string text = "ushers and sheep hide his herbs ushers";
  std::vector<ac::Match> expected = ac::find_all(srv.dfa(), text);
  ac::normalize_matches(expected);

  const SessionId id = srv.open().value();
  for (std::size_t pos = 0; pos < text.size(); pos += 5)
    ASSERT_TRUE(srv.feed(id, std::string_view(text).substr(pos, 5)).is_ok());
  EXPECT_EQ(drained_matches(srv, id), expected);
}

TEST(ServeService, UnknownAndClosedIdsAreInvalidArgument) {
  StreamService srv = make_service({"ab"}, fast_options());
  EXPECT_EQ(srv.feed(99, "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(srv.poll(99).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(srv.close(99).code(), StatusCode::kInvalidArgument);
  const SessionId id = srv.open().value();
  EXPECT_TRUE(srv.close(id).is_ok());
  EXPECT_EQ(srv.feed(id, "x").code(), StatusCode::kInvalidArgument);
}

TEST(ServeService, RejectPolicyAnswersOverloadedAndPumpMakesRoom) {
  ServeOptions opt = fast_options();
  opt.queue.max_queue_chunks = 2;
  opt.admission = AdmissionPolicy::kReject;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "aaaa").is_ok());
  ASSERT_TRUE(srv.feed(id, "bbbb").is_ok());
  const Status overloaded = srv.feed(id, "cccc");
  EXPECT_EQ(overloaded.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(srv.pump().is_ok());  // scan one superbatch inline
  EXPECT_TRUE(srv.feed(id, "cccc").is_ok());
  EXPECT_EQ(srv.stats().feeds_rejected, 1u);
  EXPECT_EQ(srv.stats().feeds_accepted, 3u);
  // The rejected feed must not have advanced the stream: global offsets
  // line up with the accepted bytes only.
  EXPECT_EQ(srv.session_stats(id).value().bytes_fed, 12u);
}

TEST(ServeService, AutoFlushNeverRejects) {
  ServeOptions opt = fast_options();
  opt.queue.max_queue_chunks = 1;
  opt.admission = AdmissionPolicy::kAutoFlush;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId id = srv.open().value();
  const std::string text = "abababababababab";
  for (std::size_t pos = 0; pos < text.size(); pos += 2)
    ASSERT_TRUE(srv.feed(id, std::string_view(text).substr(pos, 2)).is_ok());
  EXPECT_EQ(srv.stats().feeds_rejected, 0u);
  EXPECT_EQ(drained_matches(srv, id).size(), 8u);
}

TEST(ServeService, EvictionForgetsQueuedChunksAndUnpolledMatches) {
  ServeOptions opt = fast_options();
  opt.max_sessions = 1;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId first = srv.open().value();
  ASSERT_TRUE(srv.feed(first, "abab").is_ok());
  const SessionId second = srv.open().value();  // evicts `first`
  EXPECT_EQ(srv.stats().sessions_evicted, 1u);
  EXPECT_EQ(srv.poll(first).status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(srv.feed(second, "ab").is_ok());
  EXPECT_EQ(drained_matches(srv, second).size(), 1u);
  // The evicted session's queued chunk was dropped, not scanned into limbo.
  EXPECT_EQ(srv.stats().matches_dropped_closed, 0u);
}

TEST(ServeService, SessionByteQuotaSurfacesAsCapacityExceeded) {
  ServeOptions opt = fast_options();
  opt.session_limits.max_bytes = 4;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "abab").is_ok());
  EXPECT_EQ(srv.feed(id, "a").code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(srv.stats().quota_rejects, 1u);
}

TEST(ServeService, EmptyFeedIsAcceptedNoOp) {
  StreamService srv = make_service({"ab"}, fast_options());
  const SessionId id = srv.open().value();
  EXPECT_TRUE(srv.feed(id, "").is_ok());
  EXPECT_TRUE(srv.feed(id, "a").is_ok());
  EXPECT_TRUE(srv.feed(id, "").is_ok());
  EXPECT_TRUE(srv.feed(id, "b").is_ok());
  EXPECT_EQ(drained_matches(srv, id).size(), 1u);  // "ab" across the feeds
}

TEST(ServeService, ShutdownStopsAdmissionButKeepsPolling) {
  StreamService srv = make_service({"ab"}, fast_options());
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "ab").is_ok());
  srv.shutdown();
  srv.shutdown();  // idempotent
  EXPECT_EQ(srv.open().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(srv.feed(id, "x").code(), StatusCode::kInvalidArgument);
  // Accepted work was drained on shutdown and is still pollable.
  EXPECT_EQ(srv.poll(id).value().size(), 1u);
}

TEST(ServeService, BackgroundWorkerDrainsAndDelivers) {
  ServeOptions opt = fast_options();
  opt.background = true;
  StreamService srv = make_service({"he", "she"}, opt);
  const std::string text = "she sells seashells; he hears hershey";
  std::vector<ac::Match> expected = ac::find_all(srv.dfa(), text);
  ac::normalize_matches(expected);
  const SessionId id = srv.open().value();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const Status s = srv.feed(id, std::string_view(text).substr(pos, 3));
    if (s.code() == StatusCode::kOverloaded) continue;  // worker catching up
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    pos += 3;
  }
  EXPECT_EQ(drained_matches(srv, id), expected);
  EXPECT_GE(srv.stats().drains, 1u);
}

TEST(ServeService, BackgroundPumpIsInvalid) {
  ServeOptions opt = fast_options();
  opt.background = true;
  StreamService srv = make_service({"ab"}, opt);
  EXPECT_EQ(srv.pump().code(), StatusCode::kInvalidArgument);
}

TEST(ServeService, BackgroundAutoFlushIsRejectedAtCreate) {
  ServeOptions opt = fast_options();
  opt.background = true;
  opt.admission = AdmissionPolicy::kAutoFlush;
  const auto r = StreamService::create(ac::PatternSet({"ab"}), opt);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeService, CreateFromDfaScans) {
  const CompiledPatterns compiled =
      CompiledPatterns::compile(ac::build_dfa(ac::PatternSet({"ab"}), 8)).value();
  auto r = StreamService::create(compiled, fast_options());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  StreamService& srv = r.value();
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "a").is_ok());
  ASSERT_TRUE(srv.feed(id, "b").is_ok());
  EXPECT_EQ(drained_matches(srv, id).size(), 1u);
}

TEST(ServeService, CreateFailsCleanlyWhenTheAutomatonDoesNotFit) {
  ServeOptions opt = fast_options();
  // {he, she}: 5 states x 8 words (4 byte classes, padded to a texture
  // line), 160 B.
  opt.device.memory_bytes = 128;
  const auto r = StreamService::create(ac::PatternSet({"he", "she"}), opt);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(r.status().message().find("128 B free"), std::string::npos)
      << r.status().to_string();
}

TEST(ServeService, PublishesServeMetricFamilies) {
  telemetry::MetricsRegistry registry;
  ServeOptions opt = fast_options();
  opt.engine.telemetry.metrics = &registry;
  opt.max_sessions = 1;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId a = srv.open().value();
  ASSERT_TRUE(srv.feed(a, "abab").is_ok());
  srv.open().value();  // evicts `a`
  ASSERT_TRUE(srv.drain().is_ok());

  const auto snapshot = registry.snapshot();
  for (const char* name :
       {"serve.sessions.opened", "serve.sessions.evicted", "serve.sessions.live",
        "serve.feeds.accepted", "serve.feed.bytes", "serve.queue.depth_chunks",
        "serve.queue.max_depth_chunks", "serve.drains"})
    EXPECT_TRUE(snapshot.value(name).has_value()) << name;
  EXPECT_EQ(snapshot.value("serve.sessions.opened"), 2.0);
  EXPECT_EQ(snapshot.value("serve.sessions.evicted"), 1.0);
  EXPECT_EQ(snapshot.value("serve.feeds.accepted"), 1.0);
  EXPECT_EQ(snapshot.value("serve.feed.bytes"), 4.0);
  // Histograms expand into derived series once observed.
  EXPECT_TRUE(snapshot.value("serve.feed.latency_ns.count").has_value());
}

TEST(ServeService, PublishesThroughTheEngineTelemetrySinks) {
  // engine.telemetry is the service's only set of sinks: it carries the
  // serve.* series beside the pipeline.* ones, and the superbatch spans
  // that the engine.scan spans nest under.
  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer;
  ServeOptions opt = fast_options();
  opt.engine.telemetry.metrics = &registry;
  opt.engine.telemetry.tracer = &tracer;
  StreamService srv = make_service({"ab"}, opt);
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "xxabxxab").is_ok());
  EXPECT_EQ(drained_matches(srv, id).size(), 2u);

  const auto snapshot = registry.snapshot();
  EXPECT_GE(snapshot.value("serve.batches").value_or(0), 1.0);
  EXPECT_GE(snapshot.value("pipeline.runs").value_or(0), 1.0);

  const std::vector<telemetry::TraceEvent> events = tracer.events();
  std::map<std::uint64_t, std::string> name_of;
  for (const telemetry::TraceEvent& e : events) name_of[e.id] = e.name;
  std::size_t scans = 0;
  for (const telemetry::TraceEvent& e : events) {
    if (e.name != "engine.scan") continue;
    ++scans;
    EXPECT_EQ(name_of[e.parent], "serve.superbatch");
  }
  EXPECT_GE(scans, 1u);
}

TEST(ServeService, StatsCountSpanningMatchesSeparately) {
  StreamService srv = make_service({"abcd"}, fast_options());
  const SessionId id = srv.open().value();
  ASSERT_TRUE(srv.feed(id, "xxab").is_ok());
  ASSERT_TRUE(srv.feed(id, "cdxxabcd").is_ok());
  ASSERT_TRUE(srv.drain().is_ok());
  const ServiceStats stats = srv.stats();
  EXPECT_EQ(stats.spanning_matches, 1u);   // the straddling "abcd"
  EXPECT_EQ(stats.matches_delivered, 2u);  // straddler + contained one
  EXPECT_EQ(srv.poll(id).value().size(), 2u);
}

TEST(ServeOptionsValidation, RejectsZeroSessionsAndZeroQueues) {
  ServeOptions opt = fast_options();
  opt.max_sessions = 0;
  EXPECT_FALSE(opt.validate().is_ok());
  opt = fast_options();
  opt.queue.max_queue_chunks = 0;
  EXPECT_FALSE(opt.validate().is_ok());
  EXPECT_TRUE(fast_options().validate().is_ok());
}

}  // namespace
}  // namespace acgpu::serve
