// Fuzzed-chunking conformance: every seeded random chunking of a stream —
// including empty chunks and 1-byte chunks — must yield byte-identical
// matches (after ac::normalize_matches) to a single-shot Engine::scan of
// the concatenated text, across all nine oracle workload families.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/chunking.h"
#include "ac/serial_matcher.h"
#include "oracle/workload_gen.h"
#include "serve/service.h"
#include "util/rng.h"

namespace acgpu::serve {
namespace {

constexpr std::uint64_t kSeed = 0x5e55104'5e55104ULL;

ServeOptions conformance_options(Rng& rng) {
  ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.engine.streams = 1 + static_cast<std::uint32_t>(rng.next_below(3));
  opt.engine.batch_bytes = 1 + rng.next_below(4096);
  // Small service bounds so coalescing and auto-flush both fire mid-run.
  opt.queue.max_queue_chunks = 2 + static_cast<std::uint32_t>(rng.next_below(15));
  opt.queue.coalesce_bytes = 1 + rng.next_below(2048);
  opt.admission = AdmissionPolicy::kAutoFlush;
  return opt;
}

/// The kernels need a per-thread chunk that is a multiple of 4 and strictly
/// larger than the overlap window.
std::uint32_t legal_chunk_bytes(const ac::Dfa& dfa) {
  const std::uint32_t overlap = ac::required_overlap(dfa.max_pattern_length());
  return (std::max<std::uint32_t>(32, overlap + 1) + 3) / 4 * 4;
}

/// Single-shot ground truth: Engine::scan over the whole text (the exact
/// comparison ISSUE requires), via the host DFA when the one-shot device
/// buffer overflows — the two are cross-validated by the oracle suite.
std::vector<ac::Match> single_shot(const oracle::CompiledWorkload& w,
                                   const EngineOptions& engine_opt) {
  EngineOptions opt = engine_opt;
  opt.match_capacity = 1024;
  DeviceOptions dopt;
  dopt.gpu.num_sms = 4;
  dopt.memory_bytes = 64u << 20;
  auto device = Device::create(dopt);
  ACGPU_CHECK(device.is_ok(), device.status().to_string());
  auto engine = Engine::create(device.value(), w.patterns(), opt);
  if (engine.is_ok()) {
    auto scan = engine.value().scan(w.text());
    if (scan.is_ok() && !scan.value().overflowed) {
      auto out = std::move(scan.value().matches);
      ac::normalize_matches(out);
      return out;
    }
  }
  auto out = ac::find_all(w.dfa(), w.text());
  ac::normalize_matches(out);
  return out;
}

/// Streams the workload's text through a fresh service using salt-derived
/// random slices (empty, 1-byte, small, packet-sized) and returns the
/// normalized matches.
std::vector<ac::Match> streamed(const oracle::CompiledWorkload& w,
                                std::uint64_t salt) {
  Rng rng(derive_seed(salt, 21));
  ServeOptions opt = conformance_options(rng);
  opt.engine.chunk_bytes = legal_chunk_bytes(w.dfa());
  auto service = StreamService::create(w.patterns(), opt);
  EXPECT_TRUE(service.is_ok()) << service.status().to_string();
  StreamService& srv = service.value();
  const SessionId id = srv.open().value();

  const std::string_view text = w.text();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t len = 0;
    switch (rng.next_below(5)) {
      case 0: len = 0; break;                                // empty chunk
      case 1: len = 1; break;                                // 1-byte chunk
      case 2: len = 1 + rng.next_below(16); break;
      case 3: len = 1 + rng.next_below(512); break;
      default: len = 1 + rng.next_below(64u << 10); break;   // up to 64KB
    }
    len = std::min(len, text.size() - pos);
    const Status s = srv.feed(id, text.substr(pos, len));
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    pos += len;
  }
  EXPECT_TRUE(srv.drain().is_ok());
  auto out = srv.poll(id).value();
  ac::normalize_matches(out);
  return out;
}

TEST(ServeFuzzedChunking, MatchesSingleShotAcrossAllWorkloadFamilies) {
  const std::size_t families = oracle::workload_family_count();
  ASSERT_GE(families, 8u);
  for (std::uint64_t family = 0; family < families; ++family) {
    const oracle::CompiledWorkload w(oracle::generate_workload(kSeed, family));
    EngineOptions ref_opt;
    ref_opt.mode = gpusim::SimMode::Functional;
    ref_opt.threads_per_block = 64;
    ref_opt.chunk_bytes = legal_chunk_bytes(w.dfa());
    const auto expected = single_shot(w, ref_opt);
    for (std::uint64_t salt = 0; salt < 3; ++salt)
      EXPECT_EQ(streamed(w, derive_seed(family, salt)), expected)
          << oracle::workload_family_name(family) << " salt=" << salt;
  }
}

TEST(ServeFuzzedChunkingEdge, AllOneByteChunksOnAdversarialOverlaps) {
  // Byte-at-a-time is the worst case: every match longer than one byte
  // spans a boundary and must come from the continuation alone.
  const oracle::CompiledWorkload w(oracle::Workload{
      "overlap", {"aa", "aaa", "aaaa", "ab", "ba"}, std::string(512, 'a') + "b" +
                                                        std::string(256, 'a')});
  auto expected = ac::find_all(w.dfa(), w.text());
  ac::normalize_matches(expected);

  Rng rng(7);
  ServeOptions opt = conformance_options(rng);
  opt.engine.chunk_bytes = legal_chunk_bytes(w.dfa());
  StreamService srv = StreamService::create(w.patterns(), opt).value();
  const SessionId id = srv.open().value();
  for (char ch : w.raw().text)
    ASSERT_TRUE(srv.feed(id, std::string_view(&ch, 1)).is_ok());
  ASSERT_TRUE(srv.drain().is_ok());
  auto got = srv.poll(id).value();
  ac::normalize_matches(got);
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace acgpu::serve
