// parse_snapshot round trip of the cluster-era metric families: a real
// 2-device Router run publishes router.*, device.<k>.*, and health.<k>.*
// series, the snapshot is serialized with write_json and re-read with
// parse_snapshot, and every name/value must survive the trip.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acgpu.h"

namespace acgpu {
namespace {

telemetry::MetricsSnapshot run_cluster_and_snapshot(
    telemetry::MetricsRegistry& registry) {
  cluster::ClusterOptions opt;
  opt.devices = 2;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.admission = serve::AdmissionPolicy::kAutoFlush;
  opt.metrics = &registry;
  opt.slo = telemetry::SloPolicy::serving_defaults();

  Result<cluster::Router> router = cluster::Router::create(
      ac::PatternSet({"he", "she", "his", "hers"}), opt);
  EXPECT_TRUE(router.is_ok()) << router.status().to_string();
  cluster::Router& cl = router.value();

  const std::string stream = "ushers and his hershey";
  for (int s = 0; s < 4; ++s) {
    const serve::SessionId id = cl.open().value();
    EXPECT_TRUE(cl.feed(id, stream).is_ok());
  }
  EXPECT_TRUE(cl.drain().is_ok());
  EXPECT_TRUE(cl.scan("she sells seashells; his hers").is_ok());
  cl.shutdown();
  return registry.snapshot();
}

TEST(SnapshotRoundTripTest, RouterAndDeviceFamiliesSurviveWriteParse) {
  telemetry::MetricsRegistry registry;
  const telemetry::MetricsSnapshot snap = run_cluster_and_snapshot(registry);

  // The run must actually have populated the PR 8 families plus the
  // health.<k>.* series this PR adds.
  const std::vector<std::string> expected = {
      "router.sessions.opened", "router.feeds",
      "router.scans",           "device.0.serve.batches",
      "device.1.serve.batches", "device.0.serve.feeds.accepted",
      "health.0.state",         "health.1.state",
  };
  for (const std::string& name : expected)
    EXPECT_TRUE(snap.value(name).has_value()) << name << " missing from run";

  std::ostringstream out;
  snap.write_json(out);
  const auto parsed = telemetry::parse_snapshot(out.str());
  ASSERT_TRUE(parsed.has_value());

  ASSERT_EQ(parsed->entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].name, snap.entries[i].name);
    // write_json keeps default stream precision (6 significant digits), so
    // wall-clock-derived gauges round-trip to within that, not bit-exactly.
    EXPECT_NEAR(parsed->entries[i].value, snap.entries[i].value,
                1e-5 * std::max(1.0, std::abs(snap.entries[i].value)))
        << snap.entries[i].name;
  }
  EXPECT_EQ(parsed->value("router.sessions.opened"), 4.0);
  EXPECT_EQ(parsed->value("router.feeds"), 4.0);
}

TEST(SnapshotRoundTripTest, ParseRejectsNonSnapshotJson) {
  EXPECT_FALSE(telemetry::parse_snapshot("not json").has_value());
  EXPECT_FALSE(telemetry::parse_snapshot("{\"nope\":{}}").has_value());
}

}  // namespace
}  // namespace acgpu
