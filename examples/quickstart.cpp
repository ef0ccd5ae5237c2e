// Quickstart: the paper's worked example ({he, she, his, hers} over
// "ushers") on the serial matcher, then the same dictionary over a larger
// synthetic text on the simulated GPU via acgpu::Engine — the whole public
// API in ~80 lines.
#include <cstdio>

#include "acgpu.h"

using namespace acgpu;

int main() {
  // ---- Phase 1: build the AC machine (Section II of the paper) ----------
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  const ac::Dfa dfa = ac::build_dfa(patterns, /*pad_pitch_to=*/8);
  std::printf("dictionary: %zu patterns -> DFA with %u states (STT %zu bytes)\n",
              patterns.size(), dfa.state_count(), dfa.stt_bytes());

  // ---- Phase 2a: serial matching ----------------------------------------
  const std::string demo = "ushers";
  std::printf("\nserial scan of \"%s\":\n", demo.c_str());
  for (const ac::Match& m : ac::find_all(dfa, demo)) {
    const std::uint32_t len = dfa.pattern_length(m.pattern);
    std::printf("  [%llu..%llu] %.*s\n",
                static_cast<unsigned long long>(m.end + 1 - len),
                static_cast<unsigned long long>(m.end), static_cast<int>(len),
                demo.c_str() + (m.end + 1 - len));
  }

  // ---- Phase 2b: the same matching on the simulated GTX 285 -------------
  // Device owns the simulated GPU (identity, memory arena); Engine compiles
  // the dictionary, uploads the automaton to it, and scans through the
  // batched multi-stream pipeline (H2D copy of batch k+1 overlaps the
  // kernel on batch k). Many engines can share one device, and the cluster
  // tier (examples/acgpu_cluster.cpp) shards work across many devices.
  const std::string text = workload::make_corpus(256 * kKiB, /*seed=*/7);
  Result<Device> device = Device::create();
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  EngineOptions opt;
  opt.streams = 2;                 // >= 2 overlaps copy with compute
  opt.batch_bytes = 64 * kKiB;     // small batches so the demo pipelines
  Result<Engine> engine = Engine::create(device.value(), patterns, opt);
  ACGPU_CHECK(engine.is_ok(), engine.status().to_string());

  Result<ScanResult> scan = engine.value().scan(text);
  ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
  const ScanResult& out = scan.value();

  std::printf("\nEngine scan of %s of magazine-like text (%u streams, %s batches):\n",
              format_bytes(text.size()).c_str(), opt.streams,
              format_bytes(opt.batch_bytes).c_str());
  std::printf("  matches=%llu (serial agrees: %s)\n",
              static_cast<unsigned long long>(out.matches.size()),
              out.matches.size() == ac::count_matches(dfa, text) ? "yes" : "NO");
  std::printf("  %llu batches, copy/compute overlap %.0f%% of the shorter engine's busy time\n",
              static_cast<unsigned long long>(out.stats.batches),
              out.stats.overlap_ratio * 100);
  std::printf("  simulated GTX 285 end-to-end: %s  ->  %s Gbps\n",
              format_seconds(out.stats.makespan_seconds).c_str(),
              format_gbps(out.stats.throughput_gbps()).c_str());
  return 0;
}
