#include "gpucheck/report.h"

#include <ostream>
#include <sstream>
#include <string>

#include "telemetry/metrics_registry.h"

namespace acgpu::gpucheck {
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

void write_site_json(std::ostream& out, const AccessSite& site) {
  if (!site.valid()) {
    out << "null";
    return;
  }
  out << "{\"block\":" << site.block << ",\"warp\":" << site.warp
      << ",\"lane\":" << site.lane << ",\"thread\":" << site.thread
      << ",\"epoch\":" << site.epoch << ",\"instr\":" << site.instr
      << ",\"addr\":" << site.addr
      << ",\"width\":" << static_cast<unsigned>(site.width)
      << ",\"store\":" << (site.is_store ? "true" : "false") << ",\"op\":\""
      << op_name(site.op) << "\"}";
}

}  // namespace

void CoalescingStats::merge(const CoalescingStats& other) {
  load_requests += other.load_requests;
  load_transactions += other.load_transactions;
  ideal_transactions += other.ideal_transactions;
  excess_requests += other.excess_requests;
  staging_requests += other.staging_requests;
  staging_excess += other.staging_excess;
  if (other.worst.valid() &&
      (!worst.valid() || other.worst_actual - other.worst_ideal >
                             worst_actual - worst_ideal)) {
    worst_actual = other.worst_actual;
    worst_ideal = other.worst_ideal;
    worst = other.worst;
  }
  if (other.staging_worst.valid() &&
      (!staging_worst.valid() ||
       other.staging_worst_actual - other.staging_worst_ideal >
           staging_worst_actual - staging_worst_ideal)) {
    staging_worst_actual = other.staging_worst_actual;
    staging_worst_ideal = other.staging_worst_ideal;
    staging_worst = other.staging_worst;
  }
}

void BankStats::merge(const BankStats& other) {
  accesses += other.accesses;
  conflicted_accesses += other.conflicted_accesses;
  if (other.max_degree > max_degree) {
    max_degree = other.max_degree;
    worst = other.worst;
  }
}

std::uint64_t AuditReport::total_hazards() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : occurrences) total += n;
  return total;
}

void AuditReport::merge(const AuditReport& other) {
  for (const Hazard& h : other.hazards) {
    if (hazards.size() < kMaxHazards)
      hazards.push_back(h);
    else
      ++dropped_hazards;
  }
  for (std::size_t k = 0; k < occurrences.size(); ++k)
    occurrences[k] += other.occurrences[k];
  dropped_hazards += other.dropped_hazards;
  coalescing.merge(other.coalescing);
  bank.merge(other.bank);
  blocks += other.blocks;
  warps += other.warps;
  barriers += other.barriers;
  accesses += other.accesses;
}

void AuditReport::write_text(std::ostream& out) const {
  out << "audit: " << blocks << " blocks, " << warps << " warps, " << accesses
      << " memory instrs, " << barriers << " barrier releases\n";
  out << "coalescing: " << coalescing.load_requests << " load requests, "
      << coalescing.load_transactions << " transactions (ideal "
      << coalescing.ideal_transactions << "), " << coalescing.excess_requests
      << " over ideal; staging class: " << coalescing.staging_requests
      << " requests, " << coalescing.staging_excess << " over ideal\n";
  if (coalescing.worst.valid())
    out << "  worst: " << coalescing.worst_actual << " vs ideal "
        << coalescing.worst_ideal << " at " << coalescing.worst << "\n";
  if (coalescing.staging_worst.valid())
    out << "  worst staging: " << coalescing.staging_worst_actual
        << " vs ideal " << coalescing.staging_worst_ideal << " at "
        << coalescing.staging_worst << "\n";
  out << "banks: " << bank.accesses << " shared accesses, "
      << bank.conflicted_accesses << " conflicted, max degree "
      << bank.max_degree << "\n";
  if (bank.worst.valid() && bank.max_degree > 1)
    out << "  worst: " << bank.worst << "\n";
  if (clean()) {
    out << "hazards: none\n";
    return;
  }
  out << "hazards: " << total_hazards() << " total";
  for (std::size_t k = 0; k < occurrences.size(); ++k)
    if (occurrences[k] > 0)
      out << ", " << to_string(static_cast<HazardKind>(k)) << "="
          << occurrences[k];
  out << "\n";
  for (const Hazard& h : hazards) out << "  " << h << "\n";
  if (dropped_hazards > 0)
    out << "  ... " << dropped_hazards << " further finding(s) not shown\n";
}

void AuditReport::write_json(std::ostream& out) const {
  out << "{\"blocks\":" << blocks << ",\"warps\":" << warps
      << ",\"accesses\":" << accesses << ",\"barriers\":" << barriers
      << ",\"clean\":" << (clean() ? "true" : "false")
      << ",\"total_hazards\":" << total_hazards()
      << ",\"dropped_hazards\":" << dropped_hazards;
  out << ",\"occurrences\":{";
  bool first = true;
  for (std::size_t k = 0; k < occurrences.size(); ++k) {
    if (occurrences[k] == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << to_string(static_cast<HazardKind>(k))
        << "\":" << occurrences[k];
  }
  out << "}";
  out << ",\"coalescing\":{\"load_requests\":" << coalescing.load_requests
      << ",\"transactions\":" << coalescing.load_transactions
      << ",\"ideal\":" << coalescing.ideal_transactions
      << ",\"excess_requests\":" << coalescing.excess_requests
      << ",\"staging_requests\":" << coalescing.staging_requests
      << ",\"staging_excess\":" << coalescing.staging_excess << "}";
  out << ",\"banks\":{\"accesses\":" << bank.accesses
      << ",\"conflicted\":" << bank.conflicted_accesses
      << ",\"max_degree\":" << bank.max_degree << "}";
  out << ",\"telemetry\":{";
  bool first_series = true;
  for (const auto& [name, value] : telemetry_series(*this)) {
    if (!first_series) out << ",";
    first_series = false;
    out << "\"" << name << "\":" << value;
  }
  out << "}";
  out << ",\"hazards\":[";
  for (std::size_t i = 0; i < hazards.size(); ++i) {
    if (i > 0) out << ",";
    const Hazard& h = hazards[i];
    out << "{\"kind\":\"" << to_string(h.kind) << "\",\"message\":\""
        << json_escape(h.message) << "\",\"first\":";
    write_site_json(out, h.first);
    out << ",\"second\":";
    write_site_json(out, h.second);
    out << "}";
  }
  out << "]}";
}

std::vector<std::pair<std::string, double>> telemetry_series(
    const AuditReport& report) {
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  return {
      {"gpucheck.bank.max_degree", static_cast<double>(report.bank.max_degree)},
      {"gpucheck.bank.conflict_ratio",
       ratio(report.bank.conflicted_accesses, report.bank.accesses)},
      // Transactions per ideal transaction: 1.0 = perfectly coalesced.
      {"gpucheck.coalescing.ratio",
       ratio(report.coalescing.load_transactions,
             report.coalescing.ideal_transactions)},
      {"gpucheck.coalescing.excess_requests",
       static_cast<double>(report.coalescing.excess_requests)},
      {"gpucheck.coalescing.staging_excess",
       static_cast<double>(report.coalescing.staging_excess)},
      {"gpucheck.hazards.total", static_cast<double>(report.total_hazards())},
  };
}

void publish(const AuditReport& report, telemetry::MetricsRegistry& registry) {
  for (const auto& [name, value] : telemetry_series(report)) {
    if (name == "gpucheck.bank.max_degree")
      registry.gauge(name).set_max(value);
    else
      registry.gauge(name).set(value);
  }
}

}  // namespace acgpu::gpucheck
