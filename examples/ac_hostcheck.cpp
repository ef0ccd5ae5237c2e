// ac_hostcheck — happens-before audit of the async host pipeline, the
// host-side sibling of ac_memcheck:
//
//   ac_hostcheck                            # full stream-count sweep
//   ac_hostcheck --configs=s2               # one stream count
//   ac_hostcheck --iterations 10 --seed 7   # a deeper sweep
//   ac_hostcheck --cluster                  # audit the multi-device Router
//                                           # tier instead: devices {1,2,4}
//                                           # x streams {2,4}, with a
//                                           # mid-stream fail-stop rebalance
//   ac_hostcheck --json                     # machine-readable report
//   ac_hostcheck --broken                   # negative controls: every
//                                           # seeded-broken schedule must be
//                                           # flagged with its expected kind
//   ac_hostcheck --broken-run=lock-inversion
//                                           # run ONE broken schedule; exits
//                                           # 1 when hazards are found (the
//                                           # WILL_FAIL ctest entries)
//   ac_hostcheck --list                     # config + broken-schedule names
//
// Each config runs real Engine::scan calls under the hostcheck Recorder;
// the analyzer reconstructs the op DAG (stream FIFO, event edges) and
// reports conflicting device accesses that are only ordered by timing luck,
// and lock-order cycles over the serve mutexes. Match output is diffed
// against the serial reference at the same time.
//
// Exit status: 0 when every config audits clean and conformant (or every
// broken schedule is caught), 1 on hazards/mismatches (or a missed broken
// schedule), 2 on bad usage.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "hostcheck/audit.h"
#include "hostcheck/broken.h"
#include "oracle/workload_gen.h"
#include "util/arg_parser.h"
#include "util/byte_units.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace acgpu;

namespace {

hostcheck::HostAuditConfig parse_config(const std::string& name) {
  unsigned streams = 0;
  char trailing = 0;
  const bool ok =
      std::sscanf(name.c_str(), "s%u%c", &streams, &trailing) == 1 && streams >= 1;
  ACGPU_CHECK(ok, "bad config '" << name << "' (want s<streams>, e.g. s2)");
  return hostcheck::HostAuditConfig{streams};
}

std::vector<hostcheck::HostAuditConfig> parse_configs(const std::string& csv) {
  std::vector<hostcheck::HostAuditConfig> configs;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ','))
    if (!token.empty()) configs.push_back(parse_config(token));
  return configs;
}

/// --cluster: the Router-tier matrix — devices {1,2,4} x streams {2,4},
/// every cell fed by concurrent sessions with a fail-stop rebalance
/// injected mid-stream whenever more than one shard is up. Returns the
/// sweep rows (merged across workloads) for the shared reporting path.
std::vector<hostcheck::HostSweepResult> run_cluster_sweep(
    std::uint64_t seed, std::uint64_t iterations) {
  std::vector<hostcheck::HostSweepResult> results;
  for (const std::uint32_t devices : {1u, 2u, 4u}) {
    for (const std::uint32_t streams : {2u, 4u}) {
      hostcheck::HostSweepResult result;
      result.name = "cluster d" + std::to_string(devices) + "-s" +
                    std::to_string(streams);
      for (std::uint64_t i = 0; i < iterations; ++i) {
        const oracle::CompiledWorkload w(oracle::generate_workload(seed, i));
        const hostcheck::HostAuditOutcome outcome =
            hostcheck::audit_cluster(w, devices, streams);
        result.report.merge(outcome.report, hostcheck::AnalyzeOptions{}.max_hazards);
        ++result.workloads;
        if (!outcome.matches_ok) ++result.mismatches;
      }
      results.push_back(std::move(result));
    }
  }
  return results;
}

/// --broken: every seeded-broken schedule must be flagged with its expected
/// hazard kind. Returns the number of schedules the analyzer MISSED.
int run_broken_controls(bool json, bool quiet) {
  struct Row {
    hostcheck::BrokenSchedule schedule;
    hostcheck::HostAuditReport report;
    bool caught = false;
  };
  std::vector<Row> rows;
  for (const hostcheck::BrokenSchedule s : hostcheck::all_broken_schedules()) {
    Row row{s, hostcheck::run_broken_schedule(s), false};
    row.caught = row.report.count(hostcheck::expected_hazard(s)) > 0;
    rows.push_back(std::move(row));
  }

  int missed = 0;
  if (json) {
    std::ostream& out = std::cout;
    out << "{\"schedules\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"schedule\":\"" << to_string(rows[i].schedule)
          << "\",\"expected\":\""
          << to_string(hostcheck::expected_hazard(rows[i].schedule))
          << "\",\"caught\":" << (rows[i].caught ? "true" : "false")
          << ",\"report\":";
      rows[i].report.write_json(out);
      out << "}";
      missed += rows[i].caught ? 0 : 1;
    }
    out << "],\"missed\":" << missed << "}\n";
    return missed;
  }

  Table table;
  table.set_header({"broken schedule", "expected hazard", "hazards", "caught"});
  for (const Row& row : rows) {
    table.add_row({to_string(row.schedule),
                   to_string(hostcheck::expected_hazard(row.schedule)),
                   std::to_string(row.report.total_hazards()),
                   row.caught ? "yes" : "NO"});
    missed += row.caught ? 0 : 1;
  }
  table.print(std::cout);
  if (missed > 0 && !quiet)
    for (const Row& row : rows)
      if (!row.caught) {
        std::printf("\n--- %s (missed) ---\n", to_string(row.schedule));
        row.report.write_text(std::cout);
      }
  std::printf(missed == 0 ? "all broken schedules caught.\n"
                          : "%d broken schedule(s) NOT caught.\n",
              missed);
  return missed;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Host-pipeline happens-before auditor: drives real Engine scans (and\n"
      "the streaming serve layer) under the host recorder across a stream-\n"
      "count matrix, reconstructs the op DAG from stream and event records,\n"
      "and reports unordered conflicting accesses and lock-order cycles.\n"
      "usage: ac_hostcheck [flags]");
  args.add_flag("seed", "workload generator seed", "42");
  args.add_flag("iterations", "number of generated workloads", "5");
  args.add_flag("configs",
                "comma-separated stream counts, e.g. s2,s4 (empty = full "
                "matrix)",
                "");
  args.add_bool_flag("cluster",
                     "audit the multi-device Router tier instead: devices "
                     "{1,2,4} x streams {2,4} with a mid-stream rebalance");
  args.add_bool_flag("broken",
                     "audit the deliberately-broken schedules instead; "
                     "exit 0 iff every one is flagged with its expected kind");
  args.add_flag("broken-run",
                "run ONE broken schedule by name; exit 1 when hazards are "
                "found (for WILL_FAIL tests)",
                "");
  args.add_bool_flag("json", "emit one machine-readable JSON report");
  args.add_bool_flag("list", "print config and broken-schedule names, exit");
  args.add_bool_flag("quiet", "suppress per-config hazard details");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (args.get_bool("list")) {
      for (const hostcheck::HostAuditConfig& c :
           hostcheck::default_config_matrix())
        std::printf("%s\n", to_string(c).c_str());
      for (const hostcheck::BrokenSchedule s : hostcheck::all_broken_schedules())
        std::printf("broken:%s\n", to_string(s));
      return 0;
    }
    if (!args.get("broken-run").empty()) {
      const hostcheck::BrokenSchedule schedule =
          hostcheck::broken_schedule_from_name(args.get("broken-run"));
      const hostcheck::HostAuditReport report =
          hostcheck::run_broken_schedule(schedule);
      if (args.get_bool("json"))
        report.write_json(std::cout);
      else
        report.write_text(std::cout);
      return report.clean() ? 0 : 1;
    }
    if (args.get_bool("broken"))
      return run_broken_controls(args.get_bool("json"), args.get_bool("quiet"))
                     == 0
                 ? 0
                 : 1;

    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto iterations =
        static_cast<std::uint64_t>(args.get_int("iterations"));
    const std::vector<hostcheck::HostAuditConfig> configs =
        parse_configs(args.get("configs"));
    const bool json = args.get_bool("json");

    if (!json) {
      if (args.get_bool("cluster"))
        std::printf(
            "hostcheck: %llu workloads x {1,2,4} devices x {2,4} streams, "
            "seed %llu\n",
            static_cast<unsigned long long>(iterations),
            static_cast<unsigned long long>(seed));
      else
        std::printf(
            "hostcheck: %llu workloads x %zu configs + serve, seed %llu\n",
            static_cast<unsigned long long>(iterations),
            configs.empty() ? hostcheck::default_config_matrix().size()
                            : configs.size(),
            static_cast<unsigned long long>(seed));
    }

    Stopwatch clock;
    const std::vector<hostcheck::HostSweepResult> results =
        args.get_bool("cluster")
            ? run_cluster_sweep(seed, iterations)
            : hostcheck::audit_conformance(seed, iterations, configs);

    bool failed = false;
    if (json) {
      std::ostream& out = std::cout;
      out << "{\"seed\":" << seed << ",\"iterations\":" << iterations
          << ",\"sweeps\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (i > 0) out << ",";
        out << "{\"name\":\"" << r.name << "\",\"workloads\":" << r.workloads
            << ",\"mismatches\":" << r.mismatches << ",\"report\":";
        r.report.write_json(out);
        out << "}";
        failed = failed || !r.report.clean() || r.mismatches > 0;
      }
      out << "]}\n";
      return failed ? 1 : 0;
    }

    Table table;
    table.set_header({"sweep", "workloads", "ops", "accesses", "lock edges",
                      "hazards", "mismatches"});
    for (const auto& r : results) {
      table.add_row({r.name, std::to_string(r.workloads),
                     std::to_string(r.report.ops),
                     std::to_string(r.report.accesses),
                     std::to_string(r.report.lock_edges),
                     std::to_string(r.report.total_hazards()),
                     std::to_string(r.mismatches)});
      failed = failed || !r.report.clean() || r.mismatches > 0;
    }
    table.print(std::cout);
    std::printf("(%s)\n", format_seconds(clock.seconds()).c_str());

    if (failed && !args.get_bool("quiet")) {
      for (const auto& r : results) {
        if (r.report.clean() && r.mismatches == 0) continue;
        std::printf("\n--- %s ---\n", r.name.c_str());
        if (r.mismatches > 0)
          std::printf("%llu workload(s) diverged from the serial reference\n",
                      static_cast<unsigned long long>(r.mismatches));
        r.report.write_text(std::cout);
      }
    }
    if (failed) {
      std::printf("\nhost-schedule hazards found.\n");
      return 1;
    }
    std::printf("all host schedules audit clean.\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ac_hostcheck: %s\n", e.what());
    return 2;
  }
}
