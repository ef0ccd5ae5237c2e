// cluster::Router wired with a dispatch::Dispatcher
// (ClusterOptions::dispatcher): every force policy returns the exact match
// set on the bulk and session paths on 1 and 2 devices, also with
// background shard workers (the TSan target: the caller thread's bulk scans
// and every shard's superbatches share one Dispatcher), a CPU-routed bulk
// scan touches no device, and an empty scan is empty.
#include "cluster/router.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "dispatch/dispatcher.h"

namespace acgpu::cluster {
namespace {

constexpr dispatch::ForcePolicy kPolicies[] = {
    dispatch::ForcePolicy::kAuto,     dispatch::ForcePolicy::kSerial,
    dispatch::ForcePolicy::kParallel, dispatch::ForcePolicy::kGpu,
    dispatch::ForcePolicy::kWorst,
};

const ac::PatternSet& test_patterns() {
  static const ac::PatternSet patterns({"he", "she", "his", "hers", "abab"});
  return patterns;
}

std::string planted_text(std::size_t bytes, std::uint64_t seed) {
  return dispatch::make_probe_text(test_patterns(), bytes, seed);
}

std::vector<ac::Match> reference(const Router& router, std::string_view text) {
  std::vector<ac::Match> expected = ac::find_all(router.dfa(), text);
  ac::normalize_matches(expected);
  return expected;
}

dispatch::DispatcherOptions forced(dispatch::ForcePolicy force) {
  dispatch::DispatcherOptions opt;
  opt.force = force;
  return opt;
}

ClusterOptions wired(dispatch::Dispatcher& dispatcher, std::uint32_t devices) {
  ClusterOptions opt;
  opt.devices = devices;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  opt.engine.match_capacity = 256;
  opt.dispatcher = &dispatcher;
  return opt;
}

Router make_router(const ClusterOptions& opt) {
  auto r = Router::create(test_patterns(), opt);
  ACGPU_CHECK(r.is_ok(), r.status().to_string());
  return std::move(r).value();
}

/// Feeds `text` to session `id` in `slice`-byte chunks.
void feed_all(Router& router, serve::SessionId id, std::string_view text,
              std::size_t slice) {
  for (std::size_t pos = 0; pos < text.size(); pos += slice)
    ASSERT_TRUE(router.feed(id, text.substr(pos, slice)).is_ok());
}

std::vector<ac::Match> poll_sorted(Router& router, serve::SessionId id) {
  std::vector<ac::Match> got = router.poll(id).value();
  ac::normalize_matches(got);
  return got;
}

std::uint64_t decisions(const dispatch::Dispatcher& dispatcher) {
  const dispatch::DispatchStats stats = dispatcher.stats();
  std::uint64_t total = 0;
  for (int b = 0; b < dispatch::kBackendCount; ++b) total += stats.decisions[b];
  return total;
}

TEST(ClusterDispatch, EveryForcePolicyIsExactOnTheBulkPath) {
  const ac::Dfa dfa = ac::build_dfa(test_patterns());
  for (std::uint32_t devices : {1u, 2u})
    for (dispatch::ForcePolicy policy : kPolicies) {
      dispatch::Dispatcher dispatcher(dfa, forced(policy));
      Router router = make_router(wired(dispatcher, devices));
      for (std::size_t bytes : {std::size_t{64}, std::size_t{1000},
                                std::size_t{64u << 10}}) {
        const std::string text = planted_text(bytes, bytes);
        auto scan = router.scan(text);
        ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
        EXPECT_EQ(scan.value().matches, reference(router, text))
            << "policy " << static_cast<int>(policy) << ", " << devices
            << " device(s), " << bytes << " bytes";
      }
      EXPECT_EQ(decisions(dispatcher), 3u);
    }
}

TEST(ClusterDispatch, EveryForcePolicyIsExactOnTheSessionPath) {
  const ac::Dfa dfa = ac::build_dfa(test_patterns());
  const std::string text = planted_text(8192, 3);
  for (std::uint32_t devices : {1u, 2u})
    for (dispatch::ForcePolicy policy : kPolicies) {
      dispatch::Dispatcher dispatcher(dfa, forced(policy));
      ClusterOptions opt = wired(dispatcher, devices);
      // A short queue of small superbatches: the serve layer routes several
      // batches per session instead of one at drain.
      opt.queue.max_queue_chunks = 4;
      opt.queue.coalesce_bytes = 1024;
      Router router = make_router(opt);
      const serve::SessionId a = router.open().value();
      const serve::SessionId b = router.open().value();
      feed_all(router, a, text, 512);
      feed_all(router, b, std::string_view(text).substr(100), 300);
      ASSERT_TRUE(router.drain().is_ok());
      EXPECT_EQ(poll_sorted(router, a), reference(router, text))
          << "policy " << static_cast<int>(policy) << ", " << devices
          << " device(s)";
      EXPECT_EQ(poll_sorted(router, b),
                reference(router, std::string_view(text).substr(100)));
      EXPECT_GE(decisions(dispatcher), 2u);
    }
}

TEST(ClusterDispatch, BackgroundShardsAndBulkScansShareOneDispatcher) {
  const ac::Dfa dfa = ac::build_dfa(test_patterns());
  const std::string bulk = planted_text(16u << 10, 11);
  for (dispatch::ForcePolicy policy : kPolicies) {
    dispatch::Dispatcher dispatcher(dfa, forced(policy));
    ClusterOptions opt = wired(dispatcher, 2);
    opt.background = true;
    Router router = make_router(opt);
    std::vector<serve::SessionId> ids;
    std::vector<std::string> texts;
    for (std::uint64_t s = 0; s < 4; ++s) {
      ids.push_back(router.open().value());
      texts.push_back(planted_text(4096, 100 + s));
    }
    // Bulk scans on this thread race the shard workers' superbatches.
    for (std::size_t pos = 0; pos < 4096; pos += 256) {
      for (std::size_t s = 0; s < ids.size(); ++s)
        ASSERT_TRUE(
            router.feed(ids[s], std::string_view(texts[s]).substr(pos, 256))
                .is_ok());
      if (pos % 1024 == 0) {
        auto scan = router.scan(bulk);
        ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
        EXPECT_EQ(scan.value().matches, reference(router, bulk))
            << "policy " << static_cast<int>(policy);
      }
    }
    ASSERT_TRUE(router.drain().is_ok());
    for (std::size_t s = 0; s < ids.size(); ++s)
      EXPECT_EQ(poll_sorted(router, ids[s]), reference(router, texts[s]))
          << "policy " << static_cast<int>(policy) << ", session " << s;
  }
}

TEST(ClusterDispatch, CpuRoutedBulkScanUsesNoDeviceAndAdvancesTheCensus) {
  const ac::Dfa dfa = ac::build_dfa(test_patterns());
  const std::string text = planted_text(4096, 7);
  for (dispatch::ForcePolicy policy :
       {dispatch::ForcePolicy::kSerial, dispatch::ForcePolicy::kParallel}) {
    dispatch::Dispatcher dispatcher(dfa, forced(policy));
    Router router = make_router(wired(dispatcher, 2));
    auto scan = router.scan(text);
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_EQ(scan.value().devices_used, 0u);
    for (double seconds : scan.value().per_device_seconds)
      EXPECT_EQ(seconds, 0.0);
    EXPECT_GT(scan.value().makespan_seconds, 0.0);
    EXPECT_EQ(scan.value().matches, reference(router, text));
    EXPECT_EQ(router.stats().scans, 1u);

    const dispatch::Backend backend =
        policy == dispatch::ForcePolicy::kSerial
            ? dispatch::Backend::kSerialCpu
            : dispatch::Backend::kParallelCpu;
    const dispatch::DispatchStats stats = dispatcher.stats();
    EXPECT_EQ(stats.decisions[static_cast<int>(backend)], 1u);
    EXPECT_EQ(decisions(dispatcher), 1u);
  }

  // The GPU force takes the scatter instead.
  dispatch::Dispatcher dispatcher(dfa, forced(dispatch::ForcePolicy::kGpu));
  Router router = make_router(wired(dispatcher, 2));
  auto scan = router.scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_EQ(scan.value().devices_used, 2u);
  EXPECT_EQ(dispatcher.stats()
                .decisions[static_cast<int>(dispatch::Backend::kGpuPipeline)],
            1u);
}

TEST(ClusterDispatch, EmptyTextIsAnEmptyResult) {
  const ac::Dfa dfa = ac::build_dfa(test_patterns());
  for (dispatch::ForcePolicy policy : kPolicies) {
    dispatch::Dispatcher dispatcher(dfa, forced(policy));
    Router router = make_router(wired(dispatcher, 2));
    auto scan = router.scan("");
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_TRUE(scan.value().matches.empty());
    EXPECT_EQ(scan.value().devices_used, 0u);
  }
}

}  // namespace
}  // namespace acgpu::cluster
