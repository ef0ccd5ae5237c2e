#include "telemetry/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "telemetry/json.h"
#include "telemetry/trace.h"  // json_escape
#include "util/error.h"
#include "util/table.h"

namespace acgpu::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (const char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.add(v);
  if (samples_.count() < kSampleCap) samples_.add(v);
}

HistogramSummary Histogram::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSummary s;
  s.count = stats_.count();
  if (s.count == 0) return s;
  s.mean = stats_.mean();
  s.min = stats_.min();
  s.max = stats_.max();
  s.p50 = samples_.percentile(50);
  s.p90 = samples_.percentile(90);
  s.p99 = samples_.percentile(99);
  return s;
}

std::optional<double> MetricsSnapshot::value(std::string_view name) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const SnapshotEntry& e, std::string_view n) { return e.name < n; });
  if (it == entries.end() || it->name != name) return std::nullopt;
  return it->value;
}

namespace {

/// JSON has no Inf/NaN; clamp the (never expected) degenerate values to 0.
double json_safe(double v) { return std::isfinite(v) ? v : 0.0; }

std::string format_value(double v) {
  std::ostringstream os;
  os << json_safe(v);
  return os.str();
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& out) const {
  // Every digit a double needs, so parse_snapshot reads back the same
  // values; names escaped, so a snapshot read from outside writes back as
  // valid JSON.
  const std::streamsize precision = out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"metrics\":{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(entries[i].name) << "\":" << json_safe(entries[i].value);
  }
  out << "},\"kinds\":{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(entries[i].name) << "\":\"" << to_string(entries[i].kind)
        << "\"";
  }
  out << "}}\n";
  out.precision(precision);
}

void MetricsSnapshot::write_csv(std::ostream& out) const {
  out << "name,kind,value\n";
  for (const SnapshotEntry& e : entries)
    out << e.name << "," << to_string(e.kind) << "," << json_safe(e.value) << "\n";
}

void MetricsSnapshot::write_table(std::ostream& out) const {
  Table table;
  table.set_header({"metric", "kind", "value"});
  for (const SnapshotEntry& e : entries)
    table.add_row({e.name, to_string(e.kind), format_value(e.value)});
  table.print(out);
}

std::optional<MetricsSnapshot> parse_snapshot(std::string_view json_text) {
  const std::optional<JsonValue> root = parse_json(json_text);
  if (!root || !root->is_object()) return std::nullopt;
  const JsonValue* metrics = root->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return std::nullopt;
  const JsonValue* kinds = root->find("kinds");

  MetricsSnapshot snap;
  for (const auto& [name, value] : metrics->object()) {
    if (!value.is_number()) return std::nullopt;
    SnapshotEntry entry;
    entry.name = name;
    entry.value = value.number();
    entry.kind = MetricKind::kGauge;
    if (kinds != nullptr && kinds->is_object()) {
      if (const JsonValue* k = kinds->find(name); k != nullptr && k->is_string()) {
        if (k->string() == "counter") entry.kind = MetricKind::kCounter;
        if (k->string() == "histogram") entry.kind = MetricKind::kHistogram;
      }
    }
    snap.entries.push_back(std::move(entry));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) { return a.name < b.name; });
  return snap;
}

MetricsRegistry::Metric& MetricsRegistry::resolve(std::string_view name,
                                                  MetricKind kind) {
  // Caller holds mu_: lookup, kind check, and lazy creation are one step so
  // two threads racing on a new name cannot each construct the sub-object.
  auto it = metrics_.find(name);
  if (it == metrics_.end())
    it = metrics_.emplace(std::string(name), Metric{kind, nullptr, nullptr, nullptr}).first;
  Metric& m = it->second;
  ACGPU_CHECK(m.kind == kind, "metric '" << std::string(name) << "' registered as "
                                         << to_string(m.kind) << ", requested as "
                                         << to_string(kind));
  return m;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  ACGPU_CHECK(valid_metric_name(name),
              "malformed metric name '" << std::string(name)
                                        << "' (want lowercase dotted segments)");
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = resolve(name, MetricKind::kCounter);
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return *m.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  ACGPU_CHECK(valid_metric_name(name),
              "malformed metric name '" << std::string(name)
                                        << "' (want lowercase dotted segments)");
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = resolve(name, MetricKind::kGauge);
  if (!m.gauge) m.gauge = std::make_unique<Gauge>();
  return *m.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  ACGPU_CHECK(valid_metric_name(name),
              "malformed metric name '" << std::string(name)
                                        << "' (want lowercase dotted segments)");
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = resolve(name, MetricKind::kHistogram);
  if (!m.histogram) m.histogram = std::make_unique<Histogram>();
  return *m.histogram;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, metric] : metrics_) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        snap.entries.push_back({name, MetricKind::kCounter,
                                static_cast<double>(metric.counter->value())});
        break;
      case MetricKind::kGauge:
        snap.entries.push_back({name, MetricKind::kGauge, metric.gauge->value()});
        break;
      case MetricKind::kHistogram: {
        const HistogramSummary s = metric.histogram->summary();
        const auto add = [&](const char* suffix, double v) {
          snap.entries.push_back({name + suffix, MetricKind::kHistogram, v});
        };
        add(".count", static_cast<double>(s.count));
        add(".mean", s.mean);
        add(".min", s.min);
        add(".max", s.max);
        add(".p50", s.p50);
        add(".p90", s.p90);
        add(".p99", s.p99);
        break;
      }
    }
  }
  // std::map iterates in name order, but histogram expansion appends suffixed
  // names that can interleave out of order relative to later metrics.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace acgpu::telemetry
