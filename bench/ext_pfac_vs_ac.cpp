// Extension ablation (beyond the paper): PFAC (Lin et al. [3], one thread
// per byte, failureless) vs the paper's chunked shared-memory AC kernel on
// the same simulated GTX 285. PFAC trades the X-byte overlap rescanning for
// perfectly coalesced first-step loads and early thread death.
#include <cstdio>
#include <iostream>

#include "ac/pfac.h"
#include "kernels/ac_kernel.h"
#include "kernels/pfac_kernel.h"
#include "util/arg_parser.h"
#include "util/byte_units.h"
#include "util/table.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args(
      "Extension: PFAC kernel vs the paper's shared-memory AC kernel "
      "(simulated GTX 285).");
  args.add_flag("max-size", "largest input size", "16MB");
  if (!args.parse(argc, argv)) return 0;

  const gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  const std::uint64_t max_size = args.get_bytes("max-size");
  const std::vector<std::uint64_t> sizes = {max_size / 16, max_size / 4, max_size};
  const std::vector<std::uint32_t> counts = {100, 2000, 10000};

  std::fprintf(stderr, "generating %s corpus...\n", format_bytes(max_size).c_str());
  const std::string corpus =
      workload::make_corpus(static_cast<std::size_t>(max_size), 4242);

  Table table;
  table.set_header({"input", "patterns", "AC shared Gbps", "PFAC Gbps",
                    "PFAC/AC", "PFAC threads"});

  for (const std::uint32_t count : counts) {
    workload::ExtractConfig ec;
    ec.count = count;
    const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
    const ac::Dfa dfa = ac::build_dfa(patterns, 8);
    const ac::PfacAutomaton pfac(patterns);

    // PFAC allocates per-byte output slots, so budget device memory by size.
    gpusim::DeviceMemory mem(static_cast<std::size_t>(
        max_size + kernels::DeviceDfa::upload_bytes(dfa) + pfac.stt().size_bytes() +
        (max_size + 4096) * 24 + (64 << 20)));
    const kernels::DeviceDfa ddfa(mem, dfa);
    const kernels::DevicePfac dpfac(mem, pfac);
    // PFAC reads bytes, the AC kernel byte classes.
    const auto text_addr = kernels::upload_text(mem, corpus);
    const auto class_addr = kernels::upload_class_text(mem, ddfa, corpus);

    for (const std::uint64_t size : sizes) {
      std::size_t mark = mem.mark();
      kernels::AcLaunchSpec ac_spec;
      ac_spec.approach = kernels::Approach::kShared;
      const auto ac_out =
          kernels::run_ac_kernel(cfg, mem, ddfa, class_addr, size, ac_spec);
      mem.release(mark);

      mark = mem.mark();
      kernels::PfacLaunchSpec pfac_spec;
      pfac_spec.match_capacity = 2;
      const auto pfac_out =
          kernels::run_pfac_kernel(cfg, mem, dpfac, text_addr, size, pfac_spec);
      mem.release(mark);

      const double ac_gbps = to_gbps(size, ac_out.sim.seconds);
      const double pfac_gbps = to_gbps(size, pfac_out.sim.seconds);
      char ratio[16];
      std::snprintf(ratio, sizeof ratio, "%.2fx", pfac_gbps / ac_gbps);
      table.add_row({format_bytes(size), std::to_string(count),
                     format_gbps(ac_gbps), format_gbps(pfac_gbps), ratio,
                     std::to_string(pfac_out.threads)});
    }
  }

  std::printf("ext: PFAC vs the paper's shared-memory AC kernel\n\n");
  table.print(std::cout);
  std::printf(
      "\nnote: PFAC removes the chunk-overlap rescan (X-1 extra bytes per "
      "thread) and its step-0 loads coalesce perfectly, but it launches one "
      "thread per input byte and loses shared-memory staging.\n");
  return 0;
}
