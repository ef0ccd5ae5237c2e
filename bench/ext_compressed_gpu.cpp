// Extension: dense vs compressed STT on the GPU (connecting the paper's
// ref [19] to its memory-hierarchy story). The dense table costs one texel
// fetch per byte but grows with states x byte classes; the compressed table
// needs up to three fetches per byte but is about half as large. The
// interesting question is where the crossover falls on the pattern-count
// axis.
#include <cstdio>
#include <iostream>

#include "acgpu.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args("Extension: dense-STT kernel vs compressed-STT kernel.");
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
    // The compressed kernel reads bytes, the dense one byte classes.
    const auto addr = kernels::upload_text(mem, input);
    const auto class_addr = kernels::upload_class_text(mem, ddfa, input);

    std::size_t mark = mem.mark();
    kernels::AcLaunchSpec dense_spec;
    dense_spec.approach = kernels::Approach::kShared;
    dense_spec.chunk_bytes = 64;
    dense_spec.threads_per_block = 192;
    const auto dense =
        kernels::run_ac_kernel(cfg, mem, ddfa, class_addr, input.size(), dense_spec);
    mem.release(mark);

    mark = mem.mark();
    kernels::CompressedLaunchSpec comp_spec;
    const auto comp =
        kernels::run_compressed_kernel(cfg, mem, dcdfa, addr, input.size(), comp_spec);
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
  std::printf("\nthe compressed table trades extra fetches per byte for a "
              "texture working set about half the dense byte-class table's; "
              "it would win once the dense table stops fitting the texture "
              "caches.\n");
  return 0;
}
