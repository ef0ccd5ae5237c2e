// The content-hash-keyed tune cache and the offline autotuner: hash
// invalidation on any dictionary/chip change, the on-disk round trip with
// deterministic bytes, malformed-input tolerance (misses, never errors),
// and the tune-once-replay-forever contract.
#include "dispatch/autotuner.h"
#include "dispatch/tune_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ac/pattern_set.h"
#include "dispatch/signature.h"
#include "pipeline/device.h"
#include "pipeline/engine.h"

namespace acgpu::dispatch {
namespace {

std::string temp_path(const char* leaf) {
  return testing::TempDir() + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DispatchTuneCache, HashChangesWithAnyPatternOrSaltEdit) {
  const ac::PatternSet a({"he", "she", "hers"});
  const ac::PatternSet b({"he", "she", "herz"});  // one byte differs
  EXPECT_EQ(dictionary_hash(a), dictionary_hash(ac::PatternSet({"he", "she", "hers"})));
  EXPECT_NE(dictionary_hash(a), dictionary_hash(b));
  EXPECT_NE(dictionary_hash(a), dictionary_hash(a, "gtx480"));
}

TEST(DispatchTuneCache, InsertFindMissSemantics) {
  TuneCache cache;
  EXPECT_TRUE(cache.empty());
  TunedParams params;
  params.threads_per_block = 128;
  params.streams = 4;
  params.gbps = 2.5;
  cache.insert(0xabcd, "s20.p2.l2.d0.bulk", params);
  ASSERT_TRUE(cache.find(0xabcd, "s20.p2.l2.d0.bulk").has_value());
  EXPECT_EQ(*cache.find(0xabcd, "s20.p2.l2.d0.bulk"), params);
  EXPECT_FALSE(cache.find(0xabce, "s20.p2.l2.d0.bulk").has_value());
  EXPECT_FALSE(cache.find(0xabcd, "s21.p2.l2.d0.bulk").has_value());
}

TEST(DispatchTuneCache, DiskRoundTripPreservesEntriesAndIsDeterministic) {
  const std::string path = temp_path("acgpu_tune_roundtrip.txt");
  TuneCache cache;
  TunedParams p1{.threads_per_block = 128, .chunk_bytes = 4096,
                 .pool_depth = 4, .streams = 4, .split_readback = false,
                 .gbps = 1.5};
  TunedParams p2{.threads_per_block = 256, .chunk_bytes = 0,
                 .pool_depth = 0, .streams = 2, .split_readback = true,
                 .gbps = 3.25};
  cache.insert(0x1111, "s20.p2.l2.d0.bulk", p1);
  cache.insert(0x2222, "s12.p2.l2.d0.sess", p2);
  ASSERT_TRUE(cache.save(path).is_ok());
  const std::string first = slurp(path);
  ASSERT_TRUE(cache.save(path).is_ok());
  EXPECT_EQ(first, slurp(path)) << "save() must be byte-deterministic";

  TuneCache loaded;
  ASSERT_TRUE(loaded.load(path).is_ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(*loaded.find(0x1111, "s20.p2.l2.d0.bulk"), p1);
  EXPECT_EQ(*loaded.find(0x2222, "s12.p2.l2.d0.sess"), p2);
  std::remove(path.c_str());
}

TEST(DispatchTuneCache, LoadMergesOverExistingEntries) {
  const std::string path = temp_path("acgpu_tune_merge.txt");
  TuneCache on_disk;
  on_disk.insert(0x1111, "s20.p2.l2.d0.bulk", TunedParams{});
  ASSERT_TRUE(on_disk.save(path).is_ok());

  TuneCache cache;
  cache.insert(0x2222, "s12.p2.l2.d0.bulk", TunedParams{});
  ASSERT_TRUE(cache.load(path).is_ok());
  EXPECT_EQ(cache.size(), 2u);
  std::remove(path.c_str());
}

TEST(DispatchTuneCache, MissingFileAndGarbageAreMissesNotErrors) {
  TuneCache cache;
  EXPECT_TRUE(cache.load(temp_path("acgpu_tune_does_not_exist.txt")).is_ok());
  EXPECT_TRUE(cache.empty());

  const std::string path = temp_path("acgpu_tune_garbage.txt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "acgpu-tune v3\n"
        << "not-a-hash s1.p1.l1.d0.bulk 256 0 0 2 1 0.0\n"
        << "ffff\n"
        << "\n";
  }
  EXPECT_TRUE(cache.load(path).is_ok());
  EXPECT_TRUE(cache.empty());

  {
    std::ofstream out(path, std::ios::binary);
    out << "acgpu-tune v99\n"
        << "abcd s1.p1.l1.d0.bulk 256 0 0 2 1 0.0\n";
  }
  EXPECT_TRUE(cache.load(path).is_ok());
  EXPECT_TRUE(cache.empty()) << "unknown versions are skipped wholesale";

  for (const char* stale : {"acgpu-tune v1", "acgpu-tune v2"}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << stale << "\n"
          << "abcd s1.p1.l1.d0.bulk 256 0 0 2 1 0.0\n";
    }
    EXPECT_TRUE(cache.load(path).is_ok());
    EXPECT_TRUE(cache.empty())
        << stale << ": winners tuned against an older kernel or geometry are not replayed";
  }
  std::remove(path.c_str());
}

TEST(DispatchTuneCache, ProbeTextIsDeterministicAndSeeded) {
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  SignatureBucket bucket;
  bucket.size_class = 14;  // 16 KiB representative size
  const std::string a = make_probe_text(patterns, bucket, 1u << 20, 42);
  const std::string b = make_probe_text(patterns, bucket, 1u << 20, 42);
  const std::string c = make_probe_text(patterns, bucket, 1u << 20, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GE(a.size(), 4u << 10);  // clamped to [4 KiB, max_bytes]
  EXPECT_LE(a.size(), 1u << 20);
  EXPECT_NE(a.find("hers"), std::string::npos)
      << "probe text plants pattern fragments";
}

TEST(DispatchTuneCache, AutotunerTunesOnceThenReplaysFromCache) {
  const ac::PatternSet patterns({"he", "she", "his", "hers"});
  DeviceOptions dev_opt;
  dev_opt.gpu.num_sms = 4;
  dev_opt.memory_bytes = 64u << 20;
  auto device = Device::create(dev_opt);
  ASSERT_TRUE(device.is_ok()) << device.status().to_string();

  EngineOptions base;
  base.threads_per_block = 64;
  Autotuner tuner(device.value(), patterns, base);
  EXPECT_EQ(tuner.dict_hash(),
            dictionary_hash(patterns, chip_salt(dev_opt.gpu)));

  SignatureBucket bucket;
  bucket.size_class = 14;
  bucket.pattern_class = 2;
  bucket.length_class = 2;

  TuneCache cache;
  const TuneBudget budget = TuneBudget::small();
  auto first = tuner.tune(bucket, budget, &cache);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().from_cache);
  EXPECT_GE(first.value().configs_tried, 1u);
  EXPECT_LE(first.value().configs_tried, budget.max_configs);
  EXPECT_GT(first.value().probe_seconds, 0.0);
  EXPECT_EQ(cache.size(), 1u);

  auto second = tuner.tune(bucket, budget, &cache);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().configs_tried, 0u);
  EXPECT_EQ(second.value().params, first.value().params);
}

}  // namespace
}  // namespace acgpu::dispatch
