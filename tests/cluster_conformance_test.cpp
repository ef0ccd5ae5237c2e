// Cluster conformance: the Router's two traffic paths against a
// single-device Engine::scan reference, swept over devices {1, 2, 4} x
// failure-injection {off, on} with salt-fuzzed chunking. Also drives the
// oracle's "router" adapter (matcher #16) directly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/router.h"
#include "oracle/matcher.h"
#include "oracle/workload_gen.h"
#include "pipeline/engine.h"
#include "util/rng.h"

namespace acgpu::cluster {
namespace {

ClusterOptions sweep_cluster(std::uint32_t devices) {
  ClusterOptions opt;
  opt.devices = devices;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.admission = serve::AdmissionPolicy::kAutoFlush;
  opt.queue.coalesce_bytes = 2048;
  return opt;
}

std::vector<ac::Match> engine_reference(const ac::PatternSet& patterns,
                                        const std::string& text) {
  EngineOptions opt;
  opt.mode = gpusim::SimMode::Functional;
  opt.threads_per_block = 64;
  DeviceOptions dopt;
  dopt.gpu.num_sms = 4;
  dopt.memory_bytes = 64u << 20;
  Device device = Device::create(dopt).value();
  Engine engine = Engine::create(device, patterns, opt).value();
  auto scan = engine.scan(text);
  ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
  ACGPU_CHECK(!scan.value().overflowed, "reference scan overflowed");
  return scan.value().matches;
}

struct Fuzzed {
  std::vector<std::string> patterns;
  std::string text;

  ac::PatternSet pattern_set() const { return ac::PatternSet(patterns); }
};

Fuzzed make_workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> patterns;
  const std::size_t n = 2 + rng.next_below(12);
  for (std::size_t i = 0; i < n; ++i) {
    std::string p(1 + rng.next_below(10), '\0');
    for (char& c : p) c = "abcr"[rng.next_below(4)];
    patterns.push_back(std::move(p));
  }
  std::string text(512 + rng.next_below(4096), '\0');
  for (char& c : text) c = "abcrx"[rng.next_below(5)];
  return {std::move(patterns), std::move(text)};
}

TEST(ClusterConformance, SessionPathSweepAgainstEngineScan) {
  for (const std::uint32_t devices : {1u, 2u, 4u}) {
    for (const bool inject : {false, true}) {
      if (inject && devices == 1) continue;  // last healthy shard can't fail
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const Fuzzed w =
            make_workload(derive_seed(0xc04f, trial * 8 + devices + inject));
        const std::vector<ac::Match> expected =
            engine_reference(w.pattern_set(), w.text);

        Router router =
            Router::create(w.pattern_set(), sweep_cluster(devices)).value();
        const serve::SessionId id = router.open().value();
        Rng chunker(derive_seed(0xc41c, trial * 8 + devices + inject));
        const std::size_t failure_at =
            inject ? chunker.next_below(w.text.size()) : w.text.size() + 1;
        bool failed_yet = false;
        std::size_t pos = 0;
        while (pos < w.text.size()) {
          if (inject && !failed_yet && pos >= failure_at) {
            ASSERT_TRUE(
                router.mark_failed(router.shard_of(id).value()).is_ok());
            failed_yet = true;
          }
          const std::size_t len = std::min<std::size_t>(
              1 + chunker.next_below(200), w.text.size() - pos);
          ASSERT_TRUE(
              router.feed(id, std::string_view(w.text).substr(pos, len))
                  .is_ok());
          pos += len;
        }
        if (inject && !failed_yet) {  // failure point fell after the last feed
          ASSERT_TRUE(router.mark_failed(router.shard_of(id).value()).is_ok());
        }
        ASSERT_TRUE(router.drain().is_ok());
        EXPECT_EQ(router.poll(id).value(), expected)
            << "devices=" << devices << " inject=" << inject
            << " trial=" << trial;
      }
    }
  }
}

TEST(ClusterConformance, BulkScanSweepAgainstEngineScan) {
  for (const std::uint32_t devices : {1u, 2u, 4u}) {
    for (const bool inject : {false, true}) {
      if (inject && devices == 1) continue;
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const Fuzzed w =
            make_workload(derive_seed(0xb17c, trial * 8 + devices + inject));
        const std::vector<ac::Match> expected =
            engine_reference(w.pattern_set(), w.text);
        Router router =
            Router::create(w.pattern_set(), sweep_cluster(devices)).value();
        if (inject) {
          Rng rng(derive_seed(0xfa17, trial));
          ASSERT_TRUE(
              router.mark_failed(rng.next_below(devices)).is_ok());
        }
        const auto scan = router.scan(w.text);
        ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
        EXPECT_EQ(scan.value().matches, expected)
            << "devices=" << devices << " inject=" << inject
            << " trial=" << trial;
        EXPECT_EQ(scan.value().devices_used, inject ? devices - 1 : devices);
      }
    }
  }
}

TEST(ClusterConformance, OracleRouterAdapterIsRegisteredAndConforms) {
  const auto& names = oracle::registered_matcher_names();
  EXPECT_EQ(names.size(), 17u);
  EXPECT_EQ(names.back(), "dispatch");
  EXPECT_EQ(names[15], "router");
  auto matcher = oracle::make_matcher("router");
  ASSERT_NE(matcher, nullptr);

  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    const Fuzzed w = make_workload(derive_seed(0x04ac, salt));
    const oracle::CompiledWorkload compiled(
        oracle::Workload{"cluster-fuzz", w.patterns, w.text});
    const std::vector<ac::Match> expected =
        engine_reference(w.pattern_set(), w.text);
    EXPECT_EQ(matcher->run(compiled, salt), expected) << "salt=" << salt;
  }
}

}  // namespace
}  // namespace acgpu::cluster
