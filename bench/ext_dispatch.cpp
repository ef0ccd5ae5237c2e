// ext_dispatch — proves the adaptive backend dispatcher earns its keep.
//
//   ext_dispatch                         # full gate: 0.97x / 1.15x criteria
//   ext_dispatch --force gpu             # a static baseline, for comparison
//   ext_dispatch --force worst           # the anti-policy: the gate must FAIL
//
// Three single-backend-favoring scan families (tiny, mid, large; see
// harness/dispatch_experiment.h) run through one calibrated Dispatcher, with
// every number deterministic modeled seconds. The GPU wins everything that
// amortizes its fixed costs — the paper's regime — so per-scan dispatch only
// matters at the small end.
//
// Every family is scanned under all three forced static policies AND under
// the cost model (auto); then a mixed sweep interleaves the families the way
// real traffic would. Acceptance criteria (exit 1 on violation):
//
//   single-family: dispatched >= 0.97x the best static backend per family
//                  (the model must find the obvious winner)
//   mixed sweep:   dispatched >= 1.15x the best SINGLE static policy
//                  (adapting per scan must beat any one-size-fits-all)
//
// --force worst runs the dispatched column under the predicted-slowest
// backend per scan — the demo that the criteria (and check_regression
// --mode dispatch) actually bite.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "acgpu.h"
#include "harness/dispatch_experiment.h"

using namespace acgpu;

namespace {

dispatch::ForcePolicy parse_policy(const std::string& name) {
  if (name == "auto") return dispatch::ForcePolicy::kAuto;
  if (name == "serial") return dispatch::ForcePolicy::kSerial;
  if (name == "parallel") return dispatch::ForcePolicy::kParallel;
  if (name == "gpu") return dispatch::ForcePolicy::kGpu;
  if (name == "worst") return dispatch::ForcePolicy::kWorst;
  ACGPU_CHECK(false, "--force must be auto, serial, parallel, gpu, or worst; "
                         "got '" << name << "'");
}

std::vector<std::string> table_row(const std::string& name,
                                   const std::string& size, std::size_t scans,
                                   const harness::DispatchTotals& t) {
  char ratio[16];
  std::snprintf(ratio, sizeof ratio, "%.3fx", t.ratio());
  return {name,
          size,
          std::to_string(scans),
          format_seconds(t.serial),
          format_seconds(t.parallel),
          format_seconds(t.gpu),
          format_seconds(t.dispatched),
          ratio};
}

void write_totals(std::ostream& out, const harness::DispatchTotals& t) {
  out << ",\"serial_seconds\":" << t.serial
      << ",\"parallel_seconds\":" << t.parallel
      << ",\"gpu_seconds\":" << t.gpu
      << ",\"dispatched_seconds\":" << t.dispatched;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "ext_dispatch: gate the adaptive backend dispatcher against the three "
      "static policies over single-family and mixed scan workloads.\n"
      "usage: ext_dispatch [flags]");
  args.add_flag("tiny", "tiny-family scan size", "64");
  args.add_flag("tiny-count", "tiny scans per sweep", "48");
  args.add_flag("mid", "mid-family scan size", "384");
  args.add_flag("mid-count", "mid scans per sweep", "12");
  args.add_flag("large", "large-family scan size", "2MB");
  args.add_flag("large-count", "large scans per sweep", "3");
  args.add_flag("patterns", "dictionary size", "2000");
  args.add_flag("seed", "workload seed", "780");
  args.add_flag("match-capacity",
                "device match-record slots per thread (Timed mode only sizes "
                "buffers with it)",
                "64");
  args.add_flag("force",
                "policy for the 'dispatched' column: auto (default), "
                "serial, parallel, gpu, or worst (the WILL_FAIL demo)",
                "auto");
  args.add_flag("family-threshold",
                "min dispatched/best-static ratio per family", "0.97");
  args.add_flag("mixed-threshold",
                "min dispatched/best-single-static ratio on the mixed sweep",
                "1.15");
  args.add_flag("json", "output path for the BENCH json artifact",
                "BENCH_dispatch.json");
  args.add_bool_flag("no-gate", "report only; skip the acceptance criteria");
  args.add_bool_flag("quiet", "suppress the per-family table");

  try {
    if (!args.parse(argc, argv)) return 0;
    harness::DispatchSweepConfig config;
    config.families = {
        {"tiny", static_cast<std::uint64_t>(args.get_bytes("tiny")),
         static_cast<std::uint32_t>(args.get_int("tiny-count"))},
        {"mid", static_cast<std::uint64_t>(args.get_bytes("mid")),
         static_cast<std::uint32_t>(args.get_int("mid-count"))},
        {"large", static_cast<std::uint64_t>(args.get_bytes("large")),
         static_cast<std::uint32_t>(args.get_int("large-count"))},
    };
    config.pattern_count = static_cast<std::uint32_t>(args.get_int("patterns"));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.match_capacity =
        static_cast<std::uint32_t>(args.get_int("match-capacity"));
    config.policy = parse_policy(args.get("force"));

    const harness::DispatchSweepResult result =
        harness::run_dispatch_sweep(config);
    const double family_min_ratio = result.single_family_min_ratio();
    const double mixed_ratio = result.mixed_win_ratio();
    const dispatch::DispatchStats& stats = result.stats;

    if (!args.get_bool("quiet")) {
      Table table;
      table.set_header({"family", "size", "scans", "serial", "parallel", "gpu",
                        "dispatched", "vs best static"});
      for (std::size_t fi = 0; fi < config.families.size(); ++fi) {
        const harness::DispatchFamily& f = config.families[fi];
        table.add_row(table_row(f.name, format_bytes(f.bytes), f.count,
                                result.families[fi]));
      }
      table.add_row(table_row("mixed", "-", result.mixed_scans, result.mixed));
      table.print(std::cout);
      std::printf("\n");
    }
    std::printf(
        "dispatch: single-family min ratio %.3f (need >= %.2f), mixed win "
        "%.3fx (need >= %.2fx)\n",
        family_min_ratio, args.get_double("family-threshold"), mixed_ratio,
        args.get_double("mixed-threshold"));
    std::printf(
        "decisions: serial %llu, parallel %llu, gpu %llu; mispredictions "
        "%llu\n",
        static_cast<unsigned long long>(stats.decisions[0]),
        static_cast<unsigned long long>(stats.decisions[1]),
        static_cast<unsigned long long>(stats.decisions[2]),
        static_cast<unsigned long long>(stats.mispredictions));

    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      ACGPU_CHECK(out.good(), "cannot write " << json_path);
      out << "{\"bench\":\"dispatch\",\"force\":\"" << args.get("force")
          << "\",\"families\":[";
      for (std::size_t fi = 0; fi < config.families.size(); ++fi) {
        const harness::DispatchFamily& f = config.families[fi];
        out << (fi == 0 ? "" : ",") << "{\"name\":\"" << f.name
            << "\",\"bytes\":" << f.bytes << ",\"count\":" << f.count;
        write_totals(out, result.families[fi]);
        out << "}";
      }
      out << "],\"mixed\":{\"scans\":" << result.mixed_scans;
      write_totals(out, result.mixed);
      out << ",\"win_ratio\":" << mixed_ratio << "}"
          << ",\"single_family_min_ratio\":" << family_min_ratio
          << ",\"decisions\":{\"serial\":" << stats.decisions[0]
          << ",\"parallel\":" << stats.decisions[1]
          << ",\"gpu\":" << stats.decisions[2] << "}"
          << ",\"mispredictions\":" << stats.mispredictions << "}\n";
      std::printf("wrote %s\n", json_path.c_str());
    }

    if (!args.get_bool("no-gate")) {
      const double family_threshold = args.get_double("family-threshold");
      const double mixed_threshold = args.get_double("mixed-threshold");
      if (family_min_ratio < family_threshold ||
          mixed_ratio < mixed_threshold) {
        std::fprintf(stderr,
                     "ext_dispatch: FAIL (single-family %.3f vs %.2f, mixed "
                     "%.3fx vs %.2fx)\n",
                     family_min_ratio, family_threshold, mixed_ratio,
                     mixed_threshold);
        return 1;
      }
    }
    std::puts("ext_dispatch: PASS");
  } catch (const Error& e) {
    std::fprintf(stderr, "ext_dispatch: %s\n", e.what());
    return 2;
  }
  return 0;
}
