// Extension ablation: block geometry. The paper states it stages "8~12KB of
// the 16KB shared memory" without justifying the block shape; this sweep
// shows the trade-off between staged bytes per block (fewer resident blocks,
// better amortised staging) and warp-level parallelism for latency hiding.
#include <cstdio>
#include <iostream>

#include "acgpu.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args("Extension: threads/block x chunk-size occupancy sweep.");
  args.add_flag("size", "input size", "16MB");
  args.add_flag("patterns", "dictionary size", "5000");
  if (!args.parse(argc, argv)) return 0;

  const gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  const auto size = static_cast<std::size_t>(args.get_bytes("size"));
  const auto count = static_cast<std::uint32_t>(args.get_int("patterns"));
  const std::string corpus = workload::make_corpus(size + 4 * kMiB, 779);
  const std::string_view input(corpus.data(), size);
  const std::string_view pool(corpus.data() + size, 4 * kMiB);

  workload::ExtractConfig ec;
  ec.count = count;
  ec.word_aligned = true;
  const ac::Dfa dfa = ac::build_dfa(workload::extract_patterns(pool, ec), 8);
  gpusim::DeviceMemory mem(1ull << 30);
  const kernels::DeviceDfa ddfa(mem, dfa);
  const auto addr = kernels::upload_class_text(mem, ddfa, input);

  Table table;
  table.set_header({"threads/block", "chunk", "staged/block", "blocks/SM",
                    "warps/SM", "Gbps"});

  struct Geometry {
    std::uint32_t tpb;
    std::uint32_t chunk;
  };
  for (const Geometry g : {Geometry{64, 64}, Geometry{96, 64}, Geometry{128, 64},
                           Geometry{192, 64}, Geometry{128, 32}, Geometry{192, 32},
                           Geometry{256, 32}, Geometry{256, 48}, Geometry{384, 32}}) {
    const std::uint32_t staged = (g.tpb + 1) * g.chunk;
    if (staged > cfg.shared_mem_bytes || g.tpb > cfg.max_threads_per_sm) continue;
    kernels::AcLaunchSpec spec;
    spec.approach = kernels::Approach::kShared;
    spec.chunk_bytes = g.chunk;
    spec.threads_per_block = g.tpb;
    const std::size_t mark = mem.mark();
    const auto out = kernels::run_ac_kernel(cfg, mem, ddfa, addr, input.size(), spec);
    mem.release(mark);
    const std::uint32_t occ = cfg.occupancy_blocks(g.tpb, staged);
    table.add_row({std::to_string(g.tpb), std::to_string(g.chunk),
                   format_bytes(staged), std::to_string(occ),
                   std::to_string(occ * ((g.tpb + 31) / 32)),
                   format_gbps(to_gbps(input.size(), out.sim.seconds))});
  }

  std::printf("ext: block-geometry sweep (%s input, %u patterns)\n\n",
              format_bytes(size).c_str(), count);
  table.print(std::cout);
  std::printf("\nmore resident warps hide texture latency; bigger staged blocks "
              "amortise staging. The paper's 8-12KB choice sits near the knee.\n");
  return 0;
}
