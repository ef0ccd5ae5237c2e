// telemetry::Logger: severity filtering, per-key burst budgets, the
// once-per-lifetime default that replaces the old static stderr guards, and
// window re-arm with suppression reporting.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/logger.h"

namespace acgpu::telemetry {
namespace {

struct Captured {
  LogSeverity severity;
  std::string key;
  std::string message;
};

LoggerOptions capture_into(std::vector<Captured>& sink) {
  LoggerOptions opt;
  opt.sink = [&sink](LogSeverity sev, std::string_view key,
                     std::string_view message) {
    sink.push_back({sev, std::string(key), std::string(message)});
  };
  return opt;
}

TEST(LoggerTest, FiltersBelowMinSeverity) {
  std::vector<Captured> out;
  LoggerOptions opt = capture_into(out);
  opt.min_severity = LogSeverity::kWarn;
  Logger log(opt);

  log.debug("a.key", "quiet");
  log.info("a.key", "quiet");
  log.warn("a.key", "loud");
  log.error("b.key", "loud");

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].severity, LogSeverity::kWarn);
  EXPECT_EQ(out[1].severity, LogSeverity::kError);
  EXPECT_EQ(log.stats().filtered, 2u);
  EXPECT_EQ(log.stats().emitted, 2u);
  // Filtered messages never count against the key's budget.
  EXPECT_EQ(log.suppressed("a.key"), 0u);
}

TEST(LoggerTest, DefaultIsOncePerKeyForTheLoggerLifetime) {
  std::vector<Captured> out;
  Logger log(capture_into(out));  // burst 1, window_ns 0

  for (int i = 0; i < 5; ++i) log.warn("cluster.postmortem_path", "cannot open");
  log.warn("cluster.shard_failed.0", "failed");

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "cluster.postmortem_path");
  EXPECT_EQ(out[1].key, "cluster.shard_failed.0");
  EXPECT_EQ(log.suppressed("cluster.postmortem_path"), 4u);
  EXPECT_EQ(log.suppressed("cluster.shard_failed.0"), 0u);
  EXPECT_EQ(log.stats().suppressed, 4u);
}

TEST(LoggerTest, BurstAdmitsNPerWindow) {
  std::vector<Captured> out;
  LoggerOptions opt = capture_into(out);
  opt.burst = 3;
  Logger log(opt);

  for (int i = 0; i < 5; ++i) log.info("k", "m");
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(log.suppressed("k"), 2u);
}

TEST(LoggerTest, WindowReArmsAndReportsSuppressedCount) {
  std::vector<Captured> out;
  std::uint64_t now = 1000;
  LoggerOptions opt = capture_into(out);
  opt.window_ns = 100;
  opt.clock = [&now] { return now; };
  Logger log(opt);

  log.warn("k", "first");          // emitted, window opens at t=1000
  log.warn("k", "suppressed one"); // over budget
  log.warn("k", "suppressed two");
  ASSERT_EQ(out.size(), 1u);

  now += 150;  // past the window: the key re-arms
  log.warn("k", "second window");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[1].message.find("second window"), std::string::npos);
  // The first message of the new window carries the suppression report.
  EXPECT_NE(out[1].message.find("2 earlier occurrence"), std::string::npos);
  EXPECT_EQ(log.suppressed("k"), 2u);
}

TEST(LoggerTest, LifetimeWindowNeverReArms) {
  std::vector<Captured> out;
  std::uint64_t now = 0;
  LoggerOptions opt = capture_into(out);
  opt.window_ns = 0;
  opt.clock = [&now] { return now; };
  Logger log(opt);

  log.warn("k", "only");
  now += 1u << 30;
  log.warn("k", "never");
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(log.suppressed("k"), 1u);
}

TEST(LoggerTest, SeverityNames) {
  EXPECT_STREQ(to_string(LogSeverity::kDebug), "debug");
  EXPECT_STREQ(to_string(LogSeverity::kInfo), "info");
  EXPECT_STREQ(to_string(LogSeverity::kWarn), "warn");
  EXPECT_STREQ(to_string(LogSeverity::kError), "error");
}

TEST(LoggerTest, GlobalLoggerExists) {
  // Just the seam: the process-global logger is constructible and callable
  // (it prints to stderr once per key; use a key no other test shares).
  Logger::global().debug("telemetry.logger_test.global_probe", "probe");
  SUCCEED();
}

}  // namespace
}  // namespace acgpu::telemetry
