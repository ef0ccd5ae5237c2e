// The perf-regression gate: baseline parsing, verdicts (including the
// demonstration that a degraded overlap ratio FAILS the checked-in bounds),
// and the --write-baseline round trip that keeps each check's shape.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics_registry.h"
#include "telemetry/regression.h"

namespace acgpu::telemetry {
namespace {

constexpr const char* kBaselineJson = R"({
  "workload": {"size_bytes": 8388608, "streams": 4},
  "checks": [
    {"name": "pipeline.overlap_ratio", "min": 0.90},
    {"name": "gpusim.shared.max_degree", "min": 1, "max": 2},
    {"name": "gpusim.tex.hit_rate", "min": 0.20}
  ]
})";

MetricsSnapshot healthy_snapshot() {
  MetricsRegistry reg;
  reg.gauge("pipeline.overlap_ratio").set(0.95);
  reg.gauge("gpusim.shared.max_degree").set(2);
  reg.gauge("gpusim.tex.hit_rate").set(0.24);
  return reg.snapshot();
}

TEST(RegressionBaseline, ParsesChecksWithBounds) {
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  ASSERT_EQ(b.value().checks.size(), 3u);
  EXPECT_EQ(b.value().checks[0].name, "pipeline.overlap_ratio");
  EXPECT_EQ(b.value().checks[0].min, 0.90);
  EXPECT_FALSE(b.value().checks[0].max.has_value());
  EXPECT_EQ(b.value().checks[1].min, 1.0);
  EXPECT_EQ(b.value().checks[1].max, 2.0);
}

TEST(RegressionBaseline, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_baseline("not json").is_ok());
  EXPECT_FALSE(parse_baseline("{}").is_ok());  // no checks array
  EXPECT_FALSE(parse_baseline(R"({"checks": [{"min": 1}]})").is_ok());
  EXPECT_FALSE(  // a check needs at least one bound
      parse_baseline(R"({"checks": [{"name": "a.b"}]})").is_ok());
  EXPECT_FALSE(  // inverted band
      parse_baseline(R"({"checks": [{"name": "a.b", "min": 2, "max": 1}]})")
          .is_ok());
}

TEST(Regression, HealthySnapshotPasses) {
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok());
  const RegressionVerdict v = check_regression(healthy_snapshot(), b.value());
  EXPECT_TRUE(v.pass());
  EXPECT_EQ(v.checks, 3u);
}

// The acceptance demo: degrade the overlap ratio (what dropping to one
// stream does to the pipeline) and the gate must fail with a verdict that
// names the series.
TEST(Regression, DegradedOverlapRatioFails) {
  MetricsRegistry reg;
  reg.gauge("pipeline.overlap_ratio").set(0.0);  // single-stream: no overlap
  reg.gauge("gpusim.shared.max_degree").set(2);
  reg.gauge("gpusim.tex.hit_rate").set(0.24);
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok());
  const RegressionVerdict v = check_regression(reg.snapshot(), b.value());
  EXPECT_FALSE(v.pass());
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].name, "pipeline.overlap_ratio");
  EXPECT_FALSE(v.violations[0].missing);
  EXPECT_NE(v.violations[0].detail.find("below min"), std::string::npos);
}

TEST(Regression, ValueAboveMaxFails) {
  MetricsRegistry reg;
  reg.gauge("pipeline.overlap_ratio").set(0.95);
  reg.gauge("gpusim.shared.max_degree").set(16);  // naive-layout regression
  reg.gauge("gpusim.tex.hit_rate").set(0.24);
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok());
  const RegressionVerdict v = check_regression(reg.snapshot(), b.value());
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].name, "gpusim.shared.max_degree");
  EXPECT_NE(v.violations[0].detail.find("above max"), std::string::npos);
}

TEST(Regression, MissingSeriesIsAViolation) {
  MetricsRegistry reg;  // publishes nothing
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok());
  const RegressionVerdict v = check_regression(reg.snapshot(), b.value());
  EXPECT_EQ(v.violations.size(), 3u);
  for (const RegressionViolation& violation : v.violations)
    EXPECT_TRUE(violation.missing);
}

TEST(Regression, VerdictTableNamesEveryCheck) {
  const Result<RegressionBaseline> b = parse_baseline(kBaselineJson);
  ASSERT_TRUE(b.is_ok());
  std::ostringstream out;
  write_verdict_table(healthy_snapshot(), b.value(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("pipeline.overlap_ratio"), std::string::npos);
  EXPECT_NE(text.find("gpusim.shared.max_degree"), std::string::npos);
  EXPECT_NE(text.find("gpusim.tex.hit_rate"), std::string::npos);
  EXPECT_NE(text.find("ok"), std::string::npos);
}

// --write-baseline round trip: the banded baseline parses back and the
// snapshot it was derived from passes it.
TEST(Regression, WriteBaselineBandsCurrentValues) {
  const MetricsSnapshot snap = healthy_snapshot();
  const Result<RegressionBaseline> banded = parse_baseline(R"({"checks": [
    {"name": "pipeline.overlap_ratio", "min": 0.5, "max": 0.6},
    {"name": "gpusim.shared.max_degree", "min": 1, "max": 2},
    {"name": "gpusim.tex.hit_rate", "min": 0.1, "max": 0.2}
  ]})");
  ASSERT_TRUE(banded.is_ok()) << banded.status().to_string();
  std::ostringstream out;
  write_baseline(snap, banded.value(), /*slack=*/0.10, out);
  const Result<RegressionBaseline> b = parse_baseline(out.str());
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  ASSERT_EQ(b.value().checks.size(), 3u);
  const RegressionVerdict v = check_regression(snap, b.value());
  EXPECT_TRUE(v.pass()) << (v.violations.empty() ? "" : v.violations[0].detail);
  // Bands really are value +/- slack.
  for (const RegressionCheck& c : b.value().checks) {
    const double value = snap.value(c.name).value();
    ASSERT_TRUE(c.min.has_value());
    ASSERT_TRUE(c.max.has_value());
    EXPECT_NEAR(*c.min, value * 0.90, 1e-9);
    EXPECT_NEAR(*c.max, value * 1.10, 1e-9);
  }
}

// --write-baseline keeps each check's shape and the file's other members:
// exact pins re-pin at the observed value, zero bounds stay 0, one-sided
// checks keep their one bound, and only the rest moves to +/- slack.
TEST(Regression, WriteBaselineKeepsEachCheckShape) {
  MetricsRegistry reg;
  reg.counter("serve.batches").add(1234567);  // past 6 significant digits
  reg.gauge("slo.breaches").set(3);
  reg.gauge("latency.p99_ns").set(2000);
  reg.gauge("overlap").set(0.8);
  reg.gauge("degree").set(2);
  reg.gauge("ratio").set(1.5);
  const Result<RegressionBaseline> old = parse_baseline(R"({
  "_comment": ["kept", "verbatim"],
  "workload": {"streams": 4, "mode": "serve"},
  "checks": [
    {"name": "serve.batches", "min": 96, "max": 96},
    {"name": "slo.breaches", "min": 0, "max": 0},
    {"name": "latency.p99_ns", "min": 0, "max": 1000},
    {"name": "overlap", "min": 0.9},
    {"name": "degree", "max": 1},
    {"name": "ratio", "min": 1, "max": 2}
  ]
})");
  ASSERT_TRUE(old.is_ok()) << old.status().to_string();

  std::ostringstream out;
  write_baseline(reg.snapshot(), old.value(), /*slack=*/0.10, out);
  const std::string text = out.str();
  EXPECT_NE(text.find(R"("_comment": ["kept", "verbatim"],)"), std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("workload": {"streams": 4, "mode": "serve"},)"),
            std::string::npos)
      << text;
  const Result<RegressionBaseline> b = parse_baseline(text);
  ASSERT_TRUE(b.is_ok()) << b.status().to_string() << "\n" << text;
  ASSERT_EQ(b.value().members.size(), 2u);
  EXPECT_EQ(b.value().members[0].first, "_comment");
  EXPECT_EQ(b.value().members[1].first, "workload");

  const std::vector<RegressionCheck>& c = b.value().checks;
  ASSERT_EQ(c.size(), 6u);
  const auto bounds = [](const RegressionCheck& check) {
    return std::pair{check.min, check.max};
  };
  using Bounds = std::pair<std::optional<double>, std::optional<double>>;
  EXPECT_EQ(bounds(c[0]), Bounds(1234567.0, 1234567.0));  // re-pinned exactly
  EXPECT_EQ(bounds(c[1]), Bounds(3.0, 3.0));
  EXPECT_EQ(c[2].min, 0.0);  // the zero floor stays
  EXPECT_NEAR(c[2].max.value(), 2200, 1e-9);
  EXPECT_NEAR(c[3].min.value(), 0.72, 1e-9);  // one-sided stays one-sided
  EXPECT_FALSE(c[3].max.has_value());
  EXPECT_FALSE(c[4].min.has_value());
  EXPECT_NEAR(c[4].max.value(), 2.2, 1e-9);
  EXPECT_NEAR(c[5].min.value(), 1.35, 1e-9);  // a band moves to +/- slack
  EXPECT_NEAR(c[5].max.value(), 1.65, 1e-9);
  EXPECT_TRUE(check_regression(reg.snapshot(), b.value()).pass());
}

TEST(Regression, WriteBaselineKeepsAFixedCeiling) {
  // A wall-clock ceiling observed far below its bound: re-banding must not
  // pull it down to the observed value, however often the file is rewritten.
  MetricsRegistry reg;
  reg.gauge("feed_p99_ns").set(6000);
  reg.gauge("overlap").set(0.8);
  std::string text = R"({"checks": [
    {"name": "feed_p99_ns", "max": 250000000, "fixed": true},
    {"name": "overlap", "min": 0.9}
  ]})";
  for (int rewrite = 0; rewrite < 2; ++rewrite) {
    const Result<RegressionBaseline> old = parse_baseline(text);
    ASSERT_TRUE(old.is_ok()) << old.status().to_string() << "\n" << text;
    std::ostringstream out;
    write_baseline(reg.snapshot(), old.value(), /*slack=*/0.05, out);
    text = out.str();
    EXPECT_NE(text.find(R"({"name": "feed_p99_ns", "max": 250000000, "fixed": true})"),
              std::string::npos)
        << text;
  }
  const Result<RegressionBaseline> b = parse_baseline(text);
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  const std::vector<RegressionCheck>& c = b.value().checks;
  ASSERT_EQ(c.size(), 2u);
  EXPECT_FALSE(c[0].min.has_value());
  EXPECT_EQ(c[0].max, 250000000.0);
  EXPECT_NEAR(c[1].min.value(), 0.8 * 0.95, 1e-9);  // the band still moves
}

}  // namespace
}  // namespace acgpu::telemetry
