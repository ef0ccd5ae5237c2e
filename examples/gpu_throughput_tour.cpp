// A guided tour of the paper's optimization ladder on one workload:
//   serial -> global-memory-only -> shared (naive store) -> shared (diagonal)
//   -> batched multi-stream pipeline
// printing, at each rung, the metric that explains the speedup (transactions
// per request, bank-conflict cycles, texture hit rate, copy/compute overlap)
// — Section IV of the paper as a runnable program: the kernel rungs as raw
// launches, the pipeline rung through the acgpu::Engine API.
#include <cstdio>
#include <iostream>
#include <memory>

#include "acgpu.h"

using namespace acgpu;

int main(int argc, char** argv) {
  ArgParser args("Walks the paper's optimization ladder on one workload.");
  args.add_flag("size", "input size", "16MB");
  args.add_flag("patterns", "dictionary size", "5000");
  if (!args.parse(argc, argv)) return 0;

  const auto size = static_cast<std::size_t>(args.get_bytes("size"));
  const auto count = static_cast<std::uint32_t>(args.get_int("patterns"));

  std::printf("workload: %s magazine-like text, %u patterns extracted from it\n",
              format_bytes(size).c_str(), count);
  const std::string text = workload::make_corpus(size, 99);
  workload::ExtractConfig ec;
  ec.count = count;
  const ac::PatternSet patterns = workload::extract_patterns(text, ec);
  const CompiledPatterns compiled =
      CompiledPatterns::compile(ac::build_dfa(patterns, 8)).value();
  const ac::Dfa& dfa = compiled.dfa();
  std::printf("DFA: %u states, STT %s (texture memory)\n\n", dfa.state_count(),
              format_bytes(dfa.stt_bytes()).c_str());

  const auto est = cpumodel::estimate_serial(
      dfa, std::string_view(text).substr(0, std::min<std::size_t>(size, 2 * kMiB)),
      size);
  std::printf("rung 0 — serial (2.2GHz Core2 model): %s, %s Gbps "
              "(%.1f cycles/byte, L1 miss %.1f%%)\n",
              format_seconds(est.seconds).c_str(),
              format_gbps(to_gbps(size, est.seconds)).c_str(), est.cycles_per_byte,
              est.l1_miss_rate * 100);

  // Every rung runs on the same explicit Device, one simulated GTX 285.
  // Rungs 1-3 are the paper's kernel ablations: raw launches over the text
  // already resident on the device, as the figure sweep measures them, so
  // each time is exactly one kernel's. Rung 4 scans through the Engine,
  // copies included.
  DeviceOptions dopt;
  dopt.memory_bytes = 768 * kMiB;
  Result<Device> device = Device::create(dopt);
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  gpusim::DeviceMemory& mem = device.value().memory();
  const kernels::DeviceDfa ddfa(mem, dfa);
  const gpusim::DevAddr text_addr = kernels::upload_class_text(mem, ddfa, text);
  using kernels::Approach;
  using kernels::StoreScheme;
  auto launch = [&](Approach approach, StoreScheme scheme) {
    kernels::AcLaunchSpec spec;
    spec.approach = approach;
    spec.scheme = scheme;
    spec.sim.mode = gpusim::SimMode::Timed;
    return kernels::run_ac_kernel(device.value().gpu(), mem, ddfa, text_addr, size, spec)
        .sim;
  };

  const auto global = launch(Approach::kGlobalOnly, StoreScheme::kDiagonal);
  std::printf("\nrung 1 — global memory only: %s, %s Gbps (%.1fx vs serial)\n",
              format_seconds(global.seconds).c_str(),
              format_gbps(to_gbps(size, global.seconds)).c_str(),
              est.seconds / global.seconds);
  std::printf("         why it's slow: %.1f memory transactions per warp load "
              "(byte reads at chunk stride barely coalesce)\n",
              global.metrics.avg_transactions_per_request());

  const auto naive = launch(Approach::kShared, StoreScheme::kCoalescedNaive);
  std::printf("\nrung 2 — shared memory, coalesced loads, naive store: %s, %s Gbps "
              "(%.1fx vs serial)\n",
              format_seconds(naive.seconds).c_str(),
              format_gbps(to_gbps(size, naive.seconds)).c_str(),
              est.seconds / naive.seconds);
  std::printf("         staging fixed coalescing (%.1f txn/request) but the "
              "matching loads hit %llu bank-conflict cycles (max degree %llu)\n",
              naive.metrics.avg_transactions_per_request(),
              static_cast<unsigned long long>(naive.metrics.shared_conflict_cycles),
              static_cast<unsigned long long>(naive.metrics.shared_max_degree));

  const auto diag = launch(Approach::kShared, StoreScheme::kDiagonal);
  std::printf("\nrung 3 — shared memory, diagonal store (the paper's scheme): %s, "
              "%s Gbps (%.1fx vs serial)\n",
              format_seconds(diag.seconds).c_str(),
              format_gbps(to_gbps(size, diag.seconds)).c_str(),
              est.seconds / diag.seconds);
  std::printf("         bank-conflict cycles: %llu (degree %llu); texture hit rate "
              "%.3f\n",
              static_cast<unsigned long long>(diag.metrics.shared_conflict_cycles),
              static_cast<unsigned long long>(diag.metrics.shared_max_degree),
              diag.metrics.tex_hit_rate());

  // Rung 4 measures end to end: with one stream and one whole-input batch the
  // H2D copy, the kernel, and the D2H run strictly in series; with two
  // streams and small batches the copy engine stages batch k+1 while the
  // compute engine matches batch k.
  auto scan = [&](std::uint32_t streams, std::uint64_t batch_bytes) {
    EngineOptions opt;
    opt.streams = streams;
    opt.batch_bytes = batch_bytes;
    opt.mode = gpusim::SimMode::Timed;
    Result<Engine> engine = Engine::create(device.value(), compiled, opt);
    ACGPU_CHECK(engine.is_ok(), engine.status().to_string());
    Result<ScanResult> result = engine.value().scan(text);
    ACGPU_CHECK(result.is_ok(), result.status().to_string());
    return std::move(result).value().stats;
  };
  const pipeline::PipelineStats single = scan(1, size);
  const pipeline::PipelineStats piped = scan(2, 2 * kMiB);
  std::printf("\nrung 4 — batched multi-stream pipeline (2 streams, %s batches): "
              "%s end-to-end, %s Gbps\n",
              format_bytes(2 * kMiB).c_str(),
              format_seconds(piped.makespan_seconds).c_str(),
              format_gbps(piped.throughput_gbps()).c_str());
  std::printf("         vs single-buffer end-to-end (%s): %.2fx — copy/compute "
              "overlap %.0f%% across %llu batches\n",
              format_seconds(single.makespan_seconds).c_str(),
              single.makespan_seconds / piped.makespan_seconds,
              piped.overlap_ratio * 100,
              static_cast<unsigned long long>(piped.batches));

  std::printf("\nladder summary: serial -> %.1fx -> %.1fx -> %.1fx kernel-only "
              "(store scheme alone: %.2fx, the paper's Fig 23); pipelining the "
              "copies buys another %.2fx end-to-end\n",
              est.seconds / global.seconds, est.seconds / naive.seconds,
              est.seconds / diag.seconds, naive.seconds / diag.seconds,
              single.makespan_seconds / piped.makespan_seconds);
  return 0;
}
