// Workload signatures and signature buckets: the dictionary-derived
// PatternStats, cheap per-batch extraction, log2 quantization, and the
// stable textual bucket keys the EWMA corrections are keyed on.
#include "dispatch/signature.h"

#include <gtest/gtest.h>

#include <string>

#include "ac/automaton.h"
#include "ac/dfa.h"
#include "ac/pattern_set.h"

namespace acgpu::dispatch {
namespace {

struct Fixture {
  ac::PatternSet patterns{{"he", "she", "his", "hers"}};
  ac::Automaton automaton{patterns};
  ac::Dfa dfa{automaton, patterns, /*pad_pitch_to=*/8};
};

TEST(DispatchSignature, PatternStatsComeFromTheDictionary) {
  Fixture fx;
  const PatternStats stats = compute_pattern_stats(fx.dfa);
  EXPECT_EQ(stats.pattern_count, 4u);
  EXPECT_EQ(stats.max_pattern_len, 4u);  // "hers"
  EXPECT_DOUBLE_EQ(stats.avg_pattern_len, (2 + 3 + 3 + 4) / 4.0);
  EXPECT_GT(stats.state_count, 0u);
  EXPECT_GT(stats.stt_bytes, 0u);
}

TEST(DispatchSignature, ExtractionFillsTextAndSessionFields) {
  Fixture fx;
  const PatternStats stats = compute_pattern_stats(fx.dfa);
  const std::string text(1000, 'a');
  const WorkloadSignature bulk = make_signature(stats, text, /*session=*/false);
  EXPECT_EQ(bulk.text_bytes, 1000u);
  EXPECT_EQ(bulk.pattern_count, 4u);
  EXPECT_FALSE(bulk.session);
  // One distinct byte value in the sample.
  EXPECT_DOUBLE_EQ(bulk.alphabet_density, 1.0 / 256.0);

  const WorkloadSignature sess = make_signature(stats, text, /*session=*/true);
  EXPECT_TRUE(sess.session);
}

TEST(DispatchSignature, DensityGrowsWithAlphabetAndStaysBounded) {
  Fixture fx;
  std::string wide;
  for (int i = 0; i < 256; ++i) wide.push_back(static_cast<char>(i));
  const WorkloadSignature sig = make_signature(fx.dfa, wide);
  EXPECT_GT(sig.alphabet_density, 0.5);
  EXPECT_LE(sig.alphabet_density, 1.0);
}

TEST(DispatchSignature, BucketsQuantizeByLog2) {
  Fixture fx;
  const PatternStats stats = compute_pattern_stats(fx.dfa);
  // 4096 and 8191 share floor(log2) = 12; 8192 starts the next class.
  const SignatureBucket b0 =
      bucket_of(make_signature(stats, std::string(4096, 'x')));
  const SignatureBucket b1 =
      bucket_of(make_signature(stats, std::string(8191, 'x')));
  const SignatureBucket b2 =
      bucket_of(make_signature(stats, std::string(8192, 'x')));
  EXPECT_EQ(b0.size_class, 12);
  EXPECT_EQ(b0, b1);
  EXPECT_EQ(b2.size_class, 13);
  EXPECT_NE(b0, b2);
}

TEST(DispatchSignature, EmptyTextIsSizeClassZero) {
  Fixture fx;
  const SignatureBucket b = bucket_of(make_signature(fx.dfa, ""));
  EXPECT_EQ(b.size_class, 0);
}

TEST(DispatchSignature, SessionBitSplitsBuckets) {
  Fixture fx;
  const PatternStats stats = compute_pattern_stats(fx.dfa);
  const std::string text(1024, 'a');
  const SignatureBucket bulk =
      bucket_of(make_signature(stats, text, /*session=*/false));
  const SignatureBucket sess =
      bucket_of(make_signature(stats, text, /*session=*/true));
  EXPECT_NE(bulk, sess);
  EXPECT_NE(bucket_key(bulk), bucket_key(sess));
}

TEST(DispatchSignature, BucketKeyIsStableAndParseable) {
  Fixture fx;
  const SignatureBucket b = bucket_of(make_signature(fx.dfa, std::string(4096, 'a')));
  const std::string key = bucket_key(b);
  // "s12.p2.l2.d0.bulk" shape: the size class and the bulk/sess suffix are
  // the key format docs/DISPATCH.md documents.
  EXPECT_EQ(key.find("s12."), 0u);
  EXPECT_NE(key.find(".bulk"), std::string::npos);
  EXPECT_EQ(key, bucket_key(b)) << "key must be deterministic";
}

}  // namespace
}  // namespace acgpu::dispatch
