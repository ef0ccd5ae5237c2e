#include "telemetry/regression.h"

#include <charconv>
#include <system_error>
#include <cmath>
#include <ostream>
#include <sstream>

#include "telemetry/json.h"
#include "telemetry/trace.h"
#include "util/table.h"

namespace acgpu::telemetry {

Result<RegressionBaseline> parse_baseline(std::string_view json_text) {
  const std::optional<std::vector<JsonMember>> members = parse_json_members(json_text);
  if (!members) return Status::invalid_argument("baseline is not a JSON object");
  RegressionBaseline baseline;
  const JsonValue* checks = nullptr;
  for (const JsonMember& member : *members) {
    if (member.name == "checks")
      checks = &member.value;
    else
      baseline.members.emplace_back(member.name, std::string(member.source));
  }
  if (checks == nullptr || !checks->is_array())
    return Status::invalid_argument("baseline has no \"checks\" array");

  for (const JsonValue& item : checks->array()) {
    if (!item.is_object())
      return Status::invalid_argument("baseline check is not an object");
    const JsonValue* name = item.find("name");
    if (name == nullptr || !name->is_string())
      return Status::invalid_argument("baseline check without a \"name\"");
    RegressionCheck check;
    check.name = name->string();
    check.min = item.number_at("min");
    check.max = item.number_at("max");
    const JsonValue* fixed = item.find("fixed");
    check.fixed = fixed != nullptr && fixed->is_bool() && fixed->boolean();
    if (!check.min && !check.max)
      return Status::invalid_argument("check '" + check.name +
                                      "' has neither \"min\" nor \"max\"");
    if (check.min && check.max && *check.min > *check.max)
      return Status::invalid_argument("check '" + check.name +
                                      "' has min above max");
    baseline.checks.push_back(std::move(check));
  }
  if (baseline.checks.empty())
    return Status::invalid_argument("baseline has no checks");
  return baseline;
}

namespace {

std::string format_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The shortest text that parses back to exactly `v`: an exact pin must
/// survive the round trip.
std::string exact_number(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

/// A hand-set bound in plain decimals ("250000000", not "2.5e+08"), still
/// parsing back to exactly `v`.
std::string decimal_number(double v) {
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed);
  return ec == std::errc{} ? std::string(buf, end) : exact_number(v);
}

std::optional<RegressionViolation> evaluate(const MetricsSnapshot& snapshot,
                                            const RegressionCheck& check) {
  const std::optional<double> value = snapshot.value(check.name);
  if (!value) {
    RegressionViolation v;
    v.name = check.name;
    v.missing = true;
    v.detail = "series missing from snapshot";
    return v;
  }
  if (check.min && *value < *check.min) {
    RegressionViolation v;
    v.name = check.name;
    v.value = *value;
    v.detail = format_number(*value) + " below min " + format_number(*check.min);
    return v;
  }
  if (check.max && *value > *check.max) {
    RegressionViolation v;
    v.name = check.name;
    v.value = *value;
    v.detail = format_number(*value) + " above max " + format_number(*check.max);
    return v;
  }
  return std::nullopt;
}

}  // namespace

RegressionVerdict check_regression(const MetricsSnapshot& snapshot,
                                   const RegressionBaseline& baseline) {
  RegressionVerdict verdict;
  verdict.checks = baseline.checks.size();
  for (const RegressionCheck& check : baseline.checks)
    if (std::optional<RegressionViolation> v = evaluate(snapshot, check))
      verdict.violations.push_back(std::move(*v));
  return verdict;
}

void write_verdict_table(const MetricsSnapshot& snapshot,
                         const RegressionBaseline& baseline, std::ostream& out) {
  Table table;
  table.set_header({"check", "min", "max", "observed", "verdict"});
  for (const RegressionCheck& check : baseline.checks) {
    const std::optional<double> value = snapshot.value(check.name);
    const std::optional<RegressionViolation> violation = evaluate(snapshot, check);
    table.add_row({check.name, check.min ? format_number(*check.min) : "-",
                   check.max ? format_number(*check.max) : "-",
                   value ? format_number(*value) : "(missing)",
                   violation ? "FAIL: " + violation->detail : "ok"});
  }
  table.print(out);
}

void write_baseline(const MetricsSnapshot& snapshot,
                    const RegressionBaseline& baseline, double slack,
                    std::ostream& out) {
  std::ostringstream checks;
  for (std::size_t i = 0; i < baseline.checks.size(); ++i) {
    const RegressionCheck& check = baseline.checks[i];
    const std::optional<double> value = snapshot.value(check.name);
    ACGPU_CHECK(value.has_value(),
                "cannot band '" << check.name << "': series missing from snapshot");
    const double lo = *value >= 0 ? *value * (1 - slack) : *value * (1 + slack);
    const double hi = *value >= 0 ? *value * (1 + slack) : *value * (1 - slack);
    const bool pinned = check.min && check.max && *check.min == *check.max;
    // A fixed bound, a zero bound and an exact pin print exactly; a band
    // keeps 6 digits.
    const auto bound = [&](std::optional<double> old, double banded) {
      if (check.fixed) return decimal_number(*old);
      if (pinned) return exact_number(*value);
      if (*old == 0) return std::string("0");
      return format_number(banded);
    };
    checks << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(check.name)
           << "\"";
    if (check.min) checks << ", \"min\": " << bound(check.min, lo);
    if (check.max) checks << ", \"max\": " << bound(check.max, hi);
    if (check.fixed) checks << ", \"fixed\": true";
    checks << "}";
  }

  out << "{";
  for (const auto& [name, source] : baseline.members)
    out << "\n  \"" << json_escape(name) << "\": " << source << ",";
  out << "\n  \"checks\": [" << checks.str() << "\n  ]\n}\n";
}

}  // namespace acgpu::telemetry
