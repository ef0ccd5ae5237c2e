// Microbenchmarks for the simulator's own cost-model components and the
// end-to-end simulation rate (simulated bytes per host second) — useful for
// sizing sample_waves in the sweeps.
#include <benchmark/benchmark.h>

#include <vector>

#include "gpusim/coalescer.h"
#include "gpusim/launcher.h"
#include "gpusim/shared_memory.h"
#include "kernels/ac_kernel.h"
#include "util/set_assoc_cache.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace {

using namespace acgpu;
using namespace acgpu::gpusim;

void BM_Coalesce(benchmark::State& state) {
  std::vector<DevAddr> addrs;
  for (int l = 0; l < 32; ++l) addrs.push_back(static_cast<DevAddr>(l) * state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(coalesce(addrs, 4, 128).transactions);
}
BENCHMARK(BM_Coalesce)->Arg(4)->Arg(64)->Arg(4096);

void BM_BankConflicts(benchmark::State& state) {
  std::vector<std::uint32_t> addrs;
  for (std::uint32_t l = 0; l < 32; ++l)
    addrs.push_back(l * static_cast<std::uint32_t>(state.range(0)) * 4);
  for (auto _ : state) benchmark::DoNotOptimize(bank_conflicts(addrs, 16, 16).total_degree);
}
BENCHMARK(BM_BankConflicts)->Arg(1)->Arg(16);

void BM_TextureCacheAccess(benchmark::State& state) {
  util::SetAssocCache cache(8 * 1024, 32, 4);  // a texture L1's geometry
  DevAddr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(a));
    a = (a + 4099) % (1 << 20);  // pseudo-random walk
  }
}
BENCHMARK(BM_TextureCacheAccess);

void BM_SimulationRate(benchmark::State& state) {
  // How fast does the detailed simulation itself run? Reported as simulated
  // input bytes per host second for the shared-memory kernel.
  GpuConfig cfg = GpuConfig::gtx285();
  const std::string text = workload::make_corpus(1 << 20, 55);
  workload::ExtractConfig ec;
  ec.count = 500;
  const ac::Dfa dfa = ac::build_dfa(workload::extract_patterns(text, ec), 8);
  DeviceMemory mem(64 << 20);
  const kernels::DeviceDfa ddfa(mem, dfa);
  const auto text_addr = kernels::upload_class_text(mem, ddfa, text);
  kernels::AcLaunchSpec spec;
  spec.approach = kernels::Approach::kShared;
  spec.sim.mode = SimMode::Timed;
  spec.sim.sample_waves = 2;

  std::uint64_t simulated_bytes = 0;
  for (auto _ : state) {
    const std::size_t mark = mem.mark();
    const auto out = kernels::run_ac_kernel(cfg, mem, ddfa, text_addr, text.size(), spec);
    mem.release(mark);
    simulated_bytes += out.sim.simulated_blocks * 128 * 64;  // blocks * tpb * chunk
    benchmark::DoNotOptimize(out.sim.cycles);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(simulated_bytes));
}
BENCHMARK(BM_SimulationRate)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
