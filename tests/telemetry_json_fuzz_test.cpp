// Robustness of the telemetry readers: every truncation and seeded random
// byte flips of a written metrics snapshot and of each committed regression
// baseline must parse or be rejected, never crash, and a snapshot that
// parses must write back and parse to the same entries. Nesting past the
// reader's depth cap is rejected instead of exhausting the stack.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/regression.h"
#include "util/rng.h"

namespace acgpu::telemetry {
namespace {

std::string written_snapshot() {
  MetricsRegistry reg;
  reg.counter("pipeline.batches").add(394);
  reg.counter("pipeline.staged_bytes").add(26593254);
  reg.gauge("pipeline.h2d_busy_seconds").set(0.00925061);
  reg.gauge("gpusim.tex_hit_rate").set(1.0 / 3.0);
  Histogram& h = reg.histogram("pipeline.batch.latency_ns");
  for (int i = 1; i <= 40; ++i) h.observe(1000.0 * i + 0.25);
  std::ostringstream out;
  reg.snapshot().write_json(out);
  return out.str();
}

std::vector<std::string> committed_baselines() {
  std::vector<std::string> docs;
  for (const auto& entry : std::filesystem::directory_iterator(ACGPU_BASELINE_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    docs.push_back(text.str());
  }
  return docs;
}

/// Fails unless `text` either fails parse_snapshot or writes back to JSON
/// that parses to the same entries.
void expect_snapshot_round_trips(const std::string& text) {
  const std::optional<MetricsSnapshot> snap = parse_snapshot(text);
  if (!snap) return;
  std::ostringstream out;
  snap->write_json(out);
  const std::optional<MetricsSnapshot> again = parse_snapshot(out.str());
  ASSERT_TRUE(again.has_value()) << "written back as unreadable JSON: " << out.str();
  ASSERT_EQ(again->entries.size(), snap->entries.size());
  for (std::size_t i = 0; i < snap->entries.size(); ++i) {
    EXPECT_EQ(again->entries[i].name, snap->entries[i].name);
    EXPECT_EQ(again->entries[i].kind, snap->entries[i].kind);
    EXPECT_EQ(again->entries[i].value, snap->entries[i].value) << snap->entries[i].name;
  }
}

/// Runs every reader over `text`; any may reject it, none may crash.
void read_all(const std::string& text) {
  (void)parse_json(text);
  (void)parse_json_members(text);
  (void)parse_baseline(text);
  expect_snapshot_round_trips(text);
}

/// Copies of `doc` with one to four bytes overwritten by random values.
std::vector<std::string> byte_flips(const std::string& doc, std::uint64_t seed, int rounds) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (int r = 0; r < rounds; ++r) {
    std::string corrupted = doc;
    const std::uint64_t flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      corrupted[rng.next_below(corrupted.size())] = static_cast<char>(rng.next_below(256));
    out.push_back(std::move(corrupted));
  }
  return out;
}

TEST(TelemetryJsonFuzz, WrittenSnapshotRoundTripsExactly) {
  const std::string doc = written_snapshot();
  const std::optional<MetricsSnapshot> snap = parse_snapshot(doc);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value("gpusim.tex_hit_rate"), 1.0 / 3.0);
  expect_snapshot_round_trips(doc);
}

TEST(TelemetryJsonFuzz, EveryTruncationOfASnapshotOrBaselineIsReadOrRejected) {
  std::vector<std::string> docs = committed_baselines();
  ASSERT_GE(docs.size(), 6u);
  docs.push_back(written_snapshot());
  for (const std::string& doc : docs)
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
      SCOPED_TRACE(doc.substr(0, 40) + "... cut at " + std::to_string(cut));
      read_all(doc.substr(0, cut));
      // A document cut before its last non-blank byte is never a whole one.
      if (doc.find_first_not_of(" \n", cut) != std::string::npos) {
        EXPECT_FALSE(parse_json(doc.substr(0, cut)).has_value());
      }
    }
}

TEST(TelemetryJsonFuzz, RandomByteFlipsOfASnapshotOrBaselineAreReadOrRejected) {
  std::vector<std::string> docs = committed_baselines();
  docs.push_back(written_snapshot());
  std::uint64_t seed = 2026;
  for (const std::string& doc : docs)
    for (const std::string& corrupted : byte_flips(doc, seed++, 1500)) read_all(corrupted);
}

TEST(TelemetryJsonFuzz, NestingPastTheDepthCapIsRejectedNotACrash) {
  // 100,000 open brackets: each level recursed once, so an uncapped reader
  // overflows the stack.
  const std::string hostile(100000, '[');
  EXPECT_FALSE(parse_json(hostile).has_value());
  EXPECT_FALSE(parse_snapshot(hostile).has_value());
  EXPECT_FALSE(parse_baseline(hostile).is_ok());
  EXPECT_FALSE(parse_json_members("{\"a\":" + hostile).has_value());
  EXPECT_FALSE(parse_snapshot("{\"metrics\":" + std::string(100000, '{')).has_value());

  // Well-formed nesting parses up to the cap, arrays and objects alike.
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "{\"k\":";
    return doc + "1" + std::string(depth, '}');
  };
  EXPECT_TRUE(parse_json(arrays(kMaxJsonDepth)).has_value());
  EXPECT_FALSE(parse_json(arrays(kMaxJsonDepth + 1)).has_value());
  EXPECT_TRUE(parse_json(objects(kMaxJsonDepth)).has_value());
  EXPECT_FALSE(parse_json(objects(kMaxJsonDepth + 1)).has_value());
  EXPECT_FALSE(parse_json(arrays(100000)).has_value());
}

TEST(TelemetryJsonFuzz, NumbersPastTheDoubleRangeAreRejected) {
  // 1e999 would read as infinity, which a snapshot could not write back.
  EXPECT_FALSE(parse_json("1e999").has_value());
  EXPECT_FALSE(parse_snapshot("{\"metrics\":{\"a\":-1e999}}").has_value());
  EXPECT_EQ(parse_json("1e308")->number(), 1e308);
}

}  // namespace
}  // namespace acgpu::telemetry
