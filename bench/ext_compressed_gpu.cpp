// Extension: dense vs compressed STT on the GPU (connecting the paper's
// ref [19] to its memory-hierarchy story). Both runs are one AC kernel over
// the same class text with the same spec; only the table differs. The dense
// table costs one texel fetch per byte but grows with states x byte classes;
// the compressed table needs up to three fetches per byte but is a quarter
// of the size or less. The interesting question is where the crossover falls
// on the pattern-count axis.
#include <cstdio>
#include <iostream>

#include "acgpu.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args("Extension: the AC kernel over the dense vs the compressed STT.");
  args.add_flag("size", "input size", "16MB");
  if (!args.parse(argc, argv)) return 0;

  const gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  const auto size = static_cast<std::size_t>(args.get_bytes("size"));
  const std::string corpus = workload::make_corpus(size + 4 * kMiB, 781);
  const std::string_view input(corpus.data(), size);
  const std::string_view pool(corpus.data() + size, 4 * kMiB);

  Table table;
  table.set_header({"patterns", "dense STT", "compressed", "dense Gbps",
                    "compressed Gbps", "compressed/dense", "dense tex hit",
                    "compressed tex hit"});

  for (std::uint32_t count : {100u, 1000u, 5000u, 20000u}) {
    workload::ExtractConfig ec;
    ec.count = count;
    ec.word_aligned = true;
    const ac::PatternSet patterns = workload::extract_patterns(pool, ec);
    const ac::Dfa dfa = ac::build_dfa(patterns, 8);
    const ac::CompressedStt cstt(dfa);

    gpusim::DeviceMemory mem(1ull << 30);
    const kernels::DeviceDfa ddfa(mem, dfa);
    const kernels::DeviceCompressedDfa dcdfa(mem, cstt, dfa);
    const auto class_addr = kernels::upload_class_text(mem, ddfa, input);

    kernels::AcLaunchSpec spec;
    spec.approach = kernels::Approach::kShared;
    spec.chunk_bytes = 64;
    spec.threads_per_block = 192;
    std::size_t mark = mem.mark();
    const auto dense =
        kernels::run_ac_kernel(cfg, mem, ddfa, class_addr, input.size(), spec);
    mem.release(mark);

    mark = mem.mark();
    const auto comp =
        kernels::run_ac_kernel(cfg, mem, dcdfa, class_addr, input.size(), spec);
    mem.release(mark);

    const double dense_gbps = to_gbps(input.size(), dense.sim.seconds);
    const double comp_gbps = to_gbps(input.size(), comp.sim.seconds);
    char ratio[16], h1[16], h2[16];
    std::snprintf(ratio, sizeof ratio, "%.2fx", comp_gbps / dense_gbps);
    std::snprintf(h1, sizeof h1, "%.3f", dense.sim.metrics.tex_hit_rate());
    std::snprintf(h2, sizeof h2, "%.3f", comp.sim.metrics.tex_hit_rate());
    table.add_row({std::to_string(count),
                   format_bytes(ddfa.stt_bytes()),
                   format_bytes(dcdfa.device_bytes()), format_gbps(dense_gbps),
                   format_gbps(comp_gbps), ratio, h1, h2});
  }

  std::printf("ext: dense vs compressed STT on the simulated GTX 285 (%s input)\n\n",
              format_bytes(size).c_str());
  table.print(std::cout);
  std::printf("\nthe compressed table trades up to three fetches per byte for a "
              "texture working set a quarter of the dense byte-class table's "
              "or less.\n");
  return 0;
}
