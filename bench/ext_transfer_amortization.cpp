// Extension analysis: what the paper's timing excludes. Section V states
// that STT construction and host->device copies are ignored because they
// are one-time costs. This bench quantifies that argument with a PCIe 2.0
// x16 transfer model over the sweep results: how many scans of the input
// amortise the STT upload, and what end-to-end throughput looks like when
// the input copy is charged on every scan.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "harness/report.h"
#include "util/arg_parser.h"
#include "util/byte_units.h"
#include "util/table.h"

using namespace acgpu;
using namespace acgpu::harness;

namespace {

/// Effective PCIe 2.0 x16 host->device bandwidth (GTX 285 era): ~5.2 GB/s
/// nominal, ~4 GB/s sustained for large pinned transfers.
constexpr double kPcieBytesPerSecond = 4.0e9;

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Extension: charges the host->device copies the paper excludes and "
      "reports amortisation break-evens.");
  args.add_bool_flag("quick", "use the reduced sweep grid");
  if (!args.parse(argc, argv)) return 0;

  const SweepConfig config =
      args.get_bool("quick") ? SweepConfig::quick() : SweepConfig::paper();
  const SweepOutcome outcome = run_sweep_cached(config, &std::cerr);

  // Largest input row: the regime the headline numbers come from.
  std::uint64_t size = 0;
  for (const auto& r : outcome.results) size = std::max(size, r.text_bytes);

  Table table;
  table.set_header({"patterns", "STT", "STT copy", "text copy", "kernel",
                    "kernel Gbps", "end-to-end Gbps", "scans to amortise STT"});
  for (const auto& r : outcome.results) {
    if (r.text_bytes != size) continue;
    const double stt_copy = r.stt_mbytes * 1e6 / kPcieBytesPerSecond;
    const double text_copy = static_cast<double>(r.text_bytes) / kPcieBytesPerSecond;
    const double kernel = r.shared.seconds;
    const double end_to_end =
        static_cast<double>(r.text_bytes) * 8.0 / (kernel + text_copy) / 1e9;
    // Scans after which the one-time STT copy is <1% of accumulated kernel
    // time, at least the one scan it is copied for.
    const double scans = std::max(1.0, std::ceil(stt_copy / (0.01 * kernel)));
    char scans_s[16];
    std::snprintf(scans_s, sizeof scans_s, "%.0f", scans);
    table.add_row({std::to_string(r.pattern_count),
                   format_bytes(static_cast<std::uint64_t>(r.stt_mbytes * 1e6)),
                   format_seconds(stt_copy), format_seconds(text_copy),
                   format_seconds(kernel), format_gbps(r.shared_gbps()),
                   format_gbps(end_to_end), scans_s});
  }

  std::printf("ext: host->device transfer amortisation (input %s, shared kernel, "
              "PCIe %.1f GB/s)\n\n",
              format_bytes(size).c_str(), kPcieBytesPerSecond / 1e9);
  table.print(std::cout);
  std::printf(
      "\nthe paper's exclusion is defensible for the dictionary (STT copy "
      "amortises quickly when the same dictionary scans many inputs) but the "
      "text copy is a real per-scan cost: end-to-end throughput is bounded by "
      "PCIe (%.0f Gbps) regardless of kernel speed.\n",
      kPcieBytesPerSecond * 8 / 1e9);
  return 0;
}
