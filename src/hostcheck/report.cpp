#include "hostcheck/report.h"

#include <cstdio>
#include <ostream>

#include "telemetry/metrics_registry.h"

namespace acgpu::hostcheck {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_ref_json(std::ostream& out, const OpRef& ref) {
  if (!ref.valid()) {
    out << "null";
    return;
  }
  out << "{\"sim\":" << ref.sim << ",\"op\":" << ref.op << "}";
}

}  // namespace

std::uint64_t HostAuditReport::total_hazards() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : occurrences) total += n;
  return total;
}

void HostAuditReport::merge(const HostAuditReport& other,
                            std::size_t max_hazards) {
  for (const HostHazard& h : other.hazards) {
    if (hazards.size() < max_hazards)
      hazards.push_back(h);
    else
      ++dropped_hazards;
  }
  for (std::size_t k = 0; k < occurrences.size(); ++k)
    occurrences[k] += other.occurrences[k];
  dropped_hazards += other.dropped_hazards;
  sims += other.sims;
  ops += other.ops;
  accesses += other.accesses;
  lock_events += other.lock_events;
  mutexes += other.mutexes;
  lock_edges += other.lock_edges;
}

void HostAuditReport::write_text(std::ostream& out) const {
  out << "host audit: " << sims << " sims, " << ops << " ops, " << accesses
      << " annotated accesses, " << lock_events << " lock events over "
      << mutexes << " mutexes (" << lock_edges << " order edges)\n";
  if (clean()) {
    out << "no hazards\n";
    return;
  }
  out << total_hazards() << " hazard(s):\n";
  for (std::size_t k = 0; k < occurrences.size(); ++k)
    if (occurrences[k] > 0)
      out << "  " << to_string(static_cast<HazardKind>(k)) << ": "
          << occurrences[k] << "\n";
  for (const HostHazard& h : hazards) out << "  " << h << "\n";
  if (dropped_hazards > 0)
    out << "  (+" << dropped_hazards << " beyond the exemplar cap)\n";
}

void HostAuditReport::write_json(std::ostream& out) const {
  out << "{\"clean\":" << (clean() ? "true" : "false")
      << ",\"total_hazards\":" << total_hazards() << ",\"counts\":{";
  bool first = true;
  for (std::size_t k = 0; k < occurrences.size(); ++k) {
    if (!first) out << ",";
    first = false;
    out << "\"" << to_string(static_cast<HazardKind>(k))
        << "\":" << occurrences[k];
  }
  out << "},\"hazards\":[";
  first = true;
  for (const HostHazard& h : hazards) {
    if (!first) out << ",";
    first = false;
    out << "{\"kind\":\"" << to_string(h.kind) << "\",\"message\":\""
        << json_escape(h.message) << "\",\"first\":";
    write_ref_json(out, h.first);
    out << ",\"second\":";
    write_ref_json(out, h.second);
    out << ",\"cycle\":[";
    bool c_first = true;
    for (const std::string& name : h.cycle) {
      if (!c_first) out << ",";
      c_first = false;
      out << "\"" << json_escape(name) << "\"";
    }
    out << "]}";
  }
  out << "],\"dropped_hazards\":" << dropped_hazards << ",\"telemetry\":{";
  first = true;
  for (const auto& [name, value] : telemetry_series(*this)) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << value;
  }
  out << "}}";
}

std::vector<std::pair<std::string, double>> telemetry_series(
    const HostAuditReport& report) {
  std::vector<std::pair<std::string, double>> series;
  series.emplace_back("hostcheck.hazards",
                      static_cast<double>(report.total_hazards()));
  for (std::size_t k = 0; k < report.occurrences.size(); ++k) {
    // Hazard names are kebab-case; metric segments only allow [a-z0-9_].
    std::string name = std::string("hostcheck.hazard.") +
                       to_string(static_cast<HazardKind>(k));
    for (char& c : name)
      if (c == '-') c = '_';
    series.emplace_back(std::move(name),
                        static_cast<double>(report.occurrences[k]));
  }
  series.emplace_back("hostcheck.sims", static_cast<double>(report.sims));
  series.emplace_back("hostcheck.ops", static_cast<double>(report.ops));
  series.emplace_back("hostcheck.accesses",
                      static_cast<double>(report.accesses));
  series.emplace_back("hostcheck.lock_events",
                      static_cast<double>(report.lock_events));
  series.emplace_back("hostcheck.lock_edges",
                      static_cast<double>(report.lock_edges));
  return series;
}

void publish(const HostAuditReport& report,
             telemetry::MetricsRegistry& registry) {
  for (const auto& [name, value] : telemetry_series(report)) {
    // Hazard counts keep the worst audit; shape counters keep the latest.
    if (name.rfind("hostcheck.hazard", 0) == 0)
      registry.gauge(name).set_max(value);
    else
      registry.gauge(name).set(value);
  }
}

}  // namespace acgpu::hostcheck
