// HealthMonitor: the SLO state machine — abstention below min_samples,
// degraded/unhealthy trips per dimension, recovery as the window slides,
// tumbling eviction windows, transition listeners, and the health.<k>.*
// gauge mirror.
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/health.h"
#include "telemetry/metrics_registry.h"
#include "util/error.h"

namespace acgpu::telemetry {
namespace {

SloPolicy error_rate_policy() {
  SloPolicy p;
  p.error_rate = {0.1, 0.5};
  p.window = 16;
  p.min_samples = 8;
  return p;
}

TEST(HealthMonitorTest, StartsOkAndAbstainsBelowMinSamples) {
  HealthMonitor mon(1, error_rate_policy());
  EXPECT_EQ(mon.state(0), HealthState::kOk);
  // 4 outright failures — but only 4 of min_samples 8, so no verdict yet:
  // a cold shard is unknown, not unhealthy.
  for (int i = 0; i < 4; ++i) mon.observe_feed(0, 1000, /*ok=*/false);
  EXPECT_EQ(mon.evaluate(0), HealthState::kOk);
  EXPECT_EQ(mon.shard_health(0).window_samples, 4u);
}

TEST(HealthMonitorTest, ErrorRateTripsDegradedThenUnhealthy) {
  HealthMonitor mon(1, error_rate_policy());
  // 8 samples, 2 errors: 25% > the 10% degraded line, under the 50% one.
  for (int i = 0; i < 6; ++i) mon.observe_feed(0, 1000, true);
  for (int i = 0; i < 2; ++i) mon.observe_feed(0, 1000, false);
  EXPECT_EQ(mon.evaluate(0), HealthState::kDegraded);
  ShardHealth h = mon.shard_health(0);
  EXPECT_DOUBLE_EQ(h.error_rate, 0.25);
  EXPECT_EQ(h.breaches, 1u);
  EXPECT_EQ(h.breached, "error_rate");

  // 6 more errors: 8/14 = 57% > 50% -> unhealthy, breaches bumps again.
  for (int i = 0; i < 6; ++i) mon.observe_feed(0, 1000, false);
  EXPECT_EQ(mon.evaluate(0), HealthState::kUnhealthy);
  EXPECT_EQ(mon.shard_health(0).breaches, 2u);
}

TEST(HealthMonitorTest, RecoversAsTheWindowSlides) {
  HealthMonitor mon(1, error_rate_policy());
  for (int i = 0; i < 8; ++i) mon.observe_feed(0, 1000, false);
  EXPECT_EQ(mon.evaluate(0), HealthState::kUnhealthy);
  // 16 clean feeds push every error out of the 16-deep window.
  for (int i = 0; i < 16; ++i) mon.observe_feed(0, 1000, true);
  EXPECT_EQ(mon.evaluate(0), HealthState::kOk);
  // Recovery is not a breach: the count only moves on worsening.
  EXPECT_EQ(mon.shard_health(0).breaches, 1u);
}

TEST(HealthMonitorTest, QueueDepthJudgesWithoutWarmup) {
  SloPolicy p;
  p.queue_depth = {10, 100};
  HealthMonitor mon(2, p);
  // Zero feeds observed — the queue gauge still judges immediately.
  mon.observe_queue_depth(0, 50);
  EXPECT_EQ(mon.evaluate(0), HealthState::kDegraded);
  mon.observe_queue_depth(0, 500);
  EXPECT_EQ(mon.evaluate(0), HealthState::kUnhealthy);
  mon.observe_queue_depth(0, 0);
  EXPECT_EQ(mon.evaluate(0), HealthState::kOk);
  EXPECT_EQ(mon.evaluate(1), HealthState::kOk);  // untouched shard
}

TEST(HealthMonitorTest, LatencyPercentilesTrip) {
  SloPolicy p;
  p.feed_p99_ns = {1e6, 1e9};
  p.window = 16;
  p.min_samples = 8;
  HealthMonitor mon(1, p);
  for (int i = 0; i < 8; ++i) mon.observe_feed(0, 2e6, true);  // p99 = 2 ms
  EXPECT_EQ(mon.evaluate(0), HealthState::kDegraded);
  EXPECT_EQ(mon.shard_health(0).breached, "feed_p99_ns");
  EXPECT_GE(mon.shard_health(0).feed_p99_ns, 1e6);
}

TEST(HealthMonitorTest, EvictionRateUsesTumblingWindows) {
  SloPolicy p;
  p.eviction_rate = {0.1, 1.0};
  p.window = 4;
  p.min_samples = 2;
  HealthMonitor mon(1, p);
  mon.observe_eviction(0, 2);
  // Mid-window: the current tumble has not closed, nothing to judge yet.
  for (int i = 0; i < 3; ++i) mon.observe_feed(0, 1000, true);
  EXPECT_EQ(mon.evaluate(0), HealthState::kOk);
  // The 4th feed closes the tumble: 2 evictions / 4 feeds = 0.5 > 0.1.
  mon.observe_feed(0, 1000, true);
  EXPECT_EQ(mon.evaluate(0), HealthState::kDegraded);
  EXPECT_DOUBLE_EQ(mon.shard_health(0).eviction_rate, 0.5);
}

TEST(HealthMonitorTest, RejectsAWindowThatCannotHoldMinSamples) {
  // Latency, error and eviction targets are judged only once the window
  // holds min_samples feeds: a window of 8 under the default 16 would leave
  // a 2 ns p99 target unjudged forever, and a zero window holds nothing.
  SloPolicy p;
  p.feed_p99_ns = {1, 2};
  p.window = 8;
  EXPECT_THROW(HealthMonitor(1, p), Error);
  p.window = 0;
  p.min_samples = 0;
  EXPECT_THROW(HealthMonitor(1, p), Error);
  p.window = 16;
  p.min_samples = 16;
  HealthMonitor mon(1, p);
  for (int i = 0; i < 16; ++i) mon.observe_feed(0, 1e6, true);
  EXPECT_EQ(mon.evaluate(0), HealthState::kUnhealthy);
}

TEST(HealthMonitorTest, WorstBreachedDimensionWins) {
  SloPolicy p;
  p.error_rate = {0.1, 0.5};     // will breach degraded
  p.queue_depth = {10, 100};     // will breach unhealthy
  p.window = 16;
  p.min_samples = 4;
  HealthMonitor mon(1, p);
  for (int i = 0; i < 3; ++i) mon.observe_feed(0, 1000, true);
  mon.observe_feed(0, 1000, false);  // 25% errors -> degraded tier
  mon.observe_queue_depth(0, 500);   // -> unhealthy tier
  EXPECT_EQ(mon.evaluate(0), HealthState::kUnhealthy);
  const ShardHealth h = mon.shard_health(0);
  EXPECT_NE(h.breached.find("error_rate"), std::string::npos);
  EXPECT_NE(h.breached.find("queue_depth"), std::string::npos);
}

TEST(HealthMonitorTest, TransitionListenerFiresOutsideTheLock) {
  struct Transition {
    std::uint32_t shard;
    HealthState from, to;
  };
  std::vector<Transition> seen;
  HealthMonitor mon(1, error_rate_policy());
  mon.set_transition_listener(
      [&](std::uint32_t shard, HealthState from, HealthState to) {
        // Re-entering the monitor proves the listener runs lock-free.
        (void)mon.shard_health(shard);
        seen.push_back({shard, from, to});
      });
  for (int i = 0; i < 8; ++i) mon.observe_feed(0, 1000, false);
  mon.evaluate(0);
  mon.evaluate(0);  // no change: must not re-fire
  for (int i = 0; i < 16; ++i) mon.observe_feed(0, 1000, true);
  mon.evaluate(0);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].from, HealthState::kOk);
  EXPECT_EQ(seen[0].to, HealthState::kUnhealthy);
  EXPECT_EQ(seen[1].from, HealthState::kUnhealthy);
  EXPECT_EQ(seen[1].to, HealthState::kOk);
}

TEST(HealthMonitorTest, PublishesHealthGauges) {
  MetricsRegistry registry;
  HealthMonitor mon(2, error_rate_policy(), &registry);
  for (int i = 0; i < 8; ++i) mon.observe_feed(1, 1000, false);
  mon.evaluate(0);
  mon.evaluate(1);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("health.0.state"), 0.0);
  EXPECT_EQ(snap.value("health.1.state"),
            static_cast<double>(HealthState::kUnhealthy));
  EXPECT_EQ(snap.value("health.1.error_rate"), 1.0);
  EXPECT_EQ(snap.value("health.1.breaches"), 1.0);
}

TEST(HealthMonitorTest, ServingDefaultsEnableAndBlankPolicyDisables) {
  EXPECT_TRUE(SloPolicy::serving_defaults().enabled());
  EXPECT_FALSE(SloPolicy{}.enabled());
  EXPECT_FALSE(SloTarget{}.enforced());
}

TEST(HealthMonitorTest, StateNames) {
  EXPECT_STREQ(to_string(HealthState::kOk), "ok");
  EXPECT_STREQ(to_string(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(to_string(HealthState::kUnhealthy), "unhealthy");
}

}  // namespace
}  // namespace acgpu::telemetry
