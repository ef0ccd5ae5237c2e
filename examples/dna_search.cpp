// Bioinformatics example: motif scanning over a synthetic genome — the
// paper's second motivating domain (genome/protein matching, refs [11],
// [14]). Compares serial, global-only, shared, and PFAC on the same probes.
#include <cstdio>
#include <iostream>

#include "acgpu.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args("Scans a synthetic genome for motif probes on the simulated GPU.");
  args.add_flag("genome", "genome size in bases", "8MB");
  args.add_flag("motifs", "number of motif probes", "2000");
  args.add_flag("motif-length", "probe length in bases", "12");
  args.add_flag("mutate", "per-base probe mutation rate", "0.05");
  args.add_flag("seed", "generator seed", "13");
  if (!args.parse(argc, argv)) return 0;

  const auto bases = static_cast<std::size_t>(args.get_bytes("genome"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  std::printf("synthesising %s genome...\n", format_bytes(bases).c_str());
  const std::string genome = workload::make_dna_sequence(bases, seed);
  const ac::PatternSet motifs = workload::extract_dna_motifs(
      genome, static_cast<std::uint32_t>(args.get_int("motifs")),
      static_cast<std::uint32_t>(args.get_int("motif-length")),
      args.get_double("mutate"), derive_seed(seed, 2));
  const ac::Dfa dfa = ac::build_dfa(motifs, 8);
  std::printf("%zu probes (len %u, DNA alphabet) -> %u DFA states, STT %s\n",
              motifs.size(), motifs.max_length(), dfa.state_count(),
              format_bytes(dfa.stt_bytes()).c_str());

  // Serial baseline (real scan + Core2 model).
  Stopwatch host;
  const std::uint64_t hits = ac::count_matches(dfa, genome);
  const double host_serial = host.seconds();
  const auto est = cpumodel::estimate_serial(
      dfa, std::string_view(genome).substr(0, std::min<std::size_t>(genome.size(), kMiB)),
      genome.size());
  std::printf("\n%llu probe hits. serial: host %s, modeled Core2 %s (%.1f cyc/B)\n",
              static_cast<unsigned long long>(hits), format_seconds(host_serial).c_str(),
              format_seconds(est.seconds).c_str(), est.cycles_per_byte);

  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  gpusim::DeviceMemory device(768 * kMiB);
  const kernels::DeviceDfa device_dfa(device, dfa);
  const ac::PfacAutomaton pfac(motifs);
  const kernels::DevicePfac device_pfac(device, pfac);
  // PFAC reads bytes, the AC kernel byte classes.
  const gpusim::DevAddr text_addr = kernels::upload_text(device, genome);
  const gpusim::DevAddr class_addr =
      kernels::upload_class_text(device, device_dfa, genome);

  Table table;
  table.set_header({"kernel", "sim time", "Gbps", "speedup vs serial", "tex hit"});
  auto add_row = [&](const char* name, double seconds, double tex_hit) {
    char speedup[16], hit[16];
    std::snprintf(speedup, sizeof speedup, "%.1fx", est.seconds / seconds);
    std::snprintf(hit, sizeof hit, "%.3f", tex_hit);
    table.add_row({name, format_seconds(seconds),
                   format_gbps(to_gbps(genome.size(), seconds)), speedup, hit});
  };

  kernels::AcLaunchSpec spec;
  spec.sim.mode = gpusim::SimMode::Timed;
  for (auto [name, approach] :
       {std::pair{"global-only", kernels::Approach::kGlobalOnly},
        std::pair{"shared (diagonal)", kernels::Approach::kShared}}) {
    spec.approach = approach;
    const std::size_t mark = device.mark();
    const auto out =
        kernels::run_ac_kernel(gpu, device, device_dfa, class_addr, genome.size(), spec);
    device.release(mark);
    add_row(name, out.sim.seconds, out.sim.metrics.tex_hit_rate());
  }
  {
    kernels::PfacLaunchSpec pfac_spec;
    pfac_spec.match_capacity = 2;
    const std::size_t mark = device.mark();
    const auto out = kernels::run_pfac_kernel(gpu, device, device_pfac, text_addr,
                                              genome.size(), pfac_spec);
    device.release(mark);
    add_row("PFAC (1 thread/base)", out.sim.seconds, out.sim.metrics.tex_hit_rate());
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf("\nnote: DNA's 4-letter alphabet keeps the hot STT rows tiny, so the "
              "texture cache stays warm even for large probe sets.\n");
  return 0;
}
