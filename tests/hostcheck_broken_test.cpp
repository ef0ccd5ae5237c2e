// Negative controls as unit tests: every deliberately-broken host schedule
// (hostcheck/broken.h) must be flagged with exactly its expected hazard
// kind, and the flagship schedules must finger the RIGHT ops — a detector
// that fires on the wrong op would pass a coarser count-only assertion while
// sending whoever debugs the report to the wrong line of the pipeline.
#include "hostcheck/broken.h"

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/json.h"
#include "util/error.h"

namespace acgpu::hostcheck {
namespace {

TEST(HostcheckBroken, EveryScheduleIsCaughtWithItsExpectedKind) {
  for (const BrokenSchedule schedule : all_broken_schedules()) {
    const HostAuditReport report = run_broken_schedule(schedule);
    EXPECT_GT(report.count(expected_hazard(schedule)), 0u)
        << to_string(schedule) << " was not flagged as "
        << to_string(expected_hazard(schedule));
    EXPECT_FALSE(report.clean()) << to_string(schedule);
  }
}

TEST(HostcheckBroken, NamesRoundTrip) {
  for (const BrokenSchedule schedule : all_broken_schedules())
    EXPECT_EQ(broken_schedule_from_name(to_string(schedule)), schedule);
  EXPECT_THROW(broken_schedule_from_name("no-such-schedule"), Error);
}

/// Analyses `schedule` and returns the parsed JSON report.
telemetry::JsonValue json_report(BrokenSchedule schedule) {
  std::ostringstream out;
  run_broken_schedule(schedule).write_json(out);
  const auto json = telemetry::parse_json(out.str());
  EXPECT_TRUE(json.has_value()) << out.str();
  return json.value_or(telemetry::JsonValue{});
}

/// First hazard of `kind` in the parsed report, or nullptr.
const telemetry::JsonValue* find_hazard(const telemetry::JsonValue& json,
                                        const std::string& kind) {
  const telemetry::JsonValue* hazards = json.find("hazards");
  if (hazards == nullptr || !hazards->is_array()) return nullptr;
  for (const telemetry::JsonValue& h : hazards->array())
    if (h.find("kind") != nullptr && h.find("kind")->string() == kind) return &h;
  return nullptr;
}

TEST(HostcheckBroken, SkippedEventWaitFingersProducerAndConsumer) {
  const telemetry::JsonValue json =
      json_report(BrokenSchedule::kSkippedEventWait);
  const telemetry::JsonValue* h = find_hazard(json, "upload-reuse");
  ASSERT_NE(h, nullptr);
  // The driver enqueues exactly two ops: the H2D (op 0, stream 0) and the
  // kernel (op 1, stream 1) whose event handshake was dropped.
  EXPECT_EQ(h->find("first")->number_at("op"), 0.0);
  EXPECT_EQ(h->find("second")->number_at("op"), 1.0);
}

TEST(HostcheckBroken, WriteDuringD2HFingersTheDrainAndTheOverwrite) {
  const telemetry::JsonValue json = json_report(BrokenSchedule::kWriteDuringD2H);
  const telemetry::JsonValue* h = find_hazard(json, "write-during-d2h");
  ASSERT_NE(h, nullptr);
  // Op 0 is the D2H draining the range on stream 0, op 1 the H2D that
  // overwrites it from stream 1.
  EXPECT_EQ(h->find("first")->number_at("op"), 0.0);
  EXPECT_EQ(h->find("second")->number_at("op"), 1.0);
}

TEST(HostcheckBroken, LockInversionReportsTheFullCycle) {
  const telemetry::JsonValue json = json_report(BrokenSchedule::kLockInversion);
  const telemetry::JsonValue* h = find_hazard(json, "lock-order-cycle");
  ASSERT_NE(h, nullptr);
  const telemetry::JsonValue* cycle = h->find("cycle");
  ASSERT_NE(cycle, nullptr);
  ASSERT_EQ(cycle->array().size(), 3u);
  EXPECT_EQ(cycle->array().front().string(), cycle->array().back().string());
}

}  // namespace
}  // namespace acgpu::hostcheck
