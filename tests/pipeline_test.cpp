// MatchPipeline: batch-boundary stitching against the serial oracle, plus
// the Engine facade and the pipeline's timing/backpressure accounting.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ac/serial_matcher.h"
#include "hostcheck/recorder.h"
#include "pipeline/engine.h"
#include "util/rng.h"
#include "workload/dna.h"

namespace acgpu::pipeline {
namespace {

gpusim::GpuConfig small_gpu() {
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;  // keeps Functional runs fast; model behaviour unchanged
  return cfg;
}

std::string random_text(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string text(n, '\0');
  for (char& c : text) c = static_cast<char>('a' + rng.next_below(4));
  return text;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string text(n, '\0');
  for (char& c : text) c = static_cast<char>(rng.next_below(256));
  return text;
}

/// {ab, cde} plus "x" followed by each of 0x80-0xff: 135 byte classes, so
/// every slice of random_bytes holds far more than 64 distinct class ids
/// and ships one byte per symbol (against {ab, cde} alone, 6 classes, it
/// would ship at 6 bits). Only state "x" tells the high bytes apart, so
/// random bytes still keep to a handful of STT rows.
ac::PatternSet byte_path_patterns() {
  std::vector<std::string> patterns = {"ab", "cde"};
  for (int b = 0x80; b < 0x100; ++b)
    patterns.push_back(std::string("x") + static_cast<char>(b));
  return ac::PatternSet(patterns);
}

/// Runs text through a pipeline built from `patterns` and checks the matches
/// against the serial reference.
void expect_conforms(const std::vector<std::string>& pattern_strings,
                     const std::string& text, PipelineOptions opt) {
  const ac::PatternSet patterns(pattern_strings);
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  const std::vector<ac::Match> expected = ac::find_all(dfa, text);

  gpusim::DeviceMemory mem(64u << 20);
  opt.mode = gpusim::SimMode::Functional;
  const kernels::DeviceDfa ddfa(mem, dfa);
  Result<PipelineResult> got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_FALSE(got.value().overflowed);
  EXPECT_EQ(got.value().matches, expected);
}

TEST(PipelineStitching, MatchesSpanningTwoBatches) {
  // "spanner" straddles the byte-1024 boundary at every offset.
  const std::string needle = "spanner";
  for (std::size_t cut = 1; cut < needle.size(); ++cut) {
    std::string text = random_text(2048, 7 + cut);
    text.replace(1024 - cut, needle.size(), needle);
    PipelineOptions opt;
    opt.batch_bytes = 1024;
    opt.streams = 2;
    expect_conforms({needle, "zzz"}, text, opt);
  }
}

TEST(PipelineStitching, OverlapWindowMatchesReportedOnce) {
  // A match entirely inside the overlap carry is seen by both the tail of
  // batch 0's slice and the head of batch 1 — the ownership rule must keep
  // exactly one copy.
  std::string text = random_text(512, 3);
  text.replace(256, 2, "ab");  // batch_bytes=256 -> "ab" starts batch 1
  text.replace(254, 2, "ab");  // spans the boundary
  PipelineOptions opt;
  opt.batch_bytes = 256;
  expect_conforms({"ab", "abab"}, text, opt);
}

TEST(PipelineStitching, TextExactMultipleOfBatchLeavesNoTrailingBatch) {
  PipelineOptions opt;
  opt.batch_bytes = 512;
  const std::string text = random_text(2048, 11);  // 4 exact batches
  expect_conforms({"aa", "abc"}, text, opt);

  gpusim::DeviceMemory mem(16u << 20);
  const ac::PatternSet patterns({std::string("aa")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().stats.batches, 4u);  // not 5
}

TEST(PipelineStitching, MatchEndingExactlyOnBatchBoundaryReportedOnce) {
  // "edge" occupies bytes 252..255 with batch_bytes=256: its last byte is
  // the batch's last byte, and the overlap carry re-scans those bytes at
  // the head of batch 1 — the ownership rule must keep exactly one copy.
  std::string text = random_text(512, 17);
  text.replace(252, 4, "edge");
  PipelineOptions opt;
  opt.batch_bytes = 256;
  expect_conforms({"edge"}, text, opt);
}

TEST(PipelineStitching, MatchStartingExactlyOnBatchBoundaryReportedOnce) {
  // "edge" starts at byte 256 — the first byte batch 1 owns — but the
  // overlap carry means batch 1's slice starts earlier; the match must be
  // credited to batch 1 exactly once.
  std::string text = random_text(512, 19);
  text.replace(256, 4, "edge");
  PipelineOptions opt;
  opt.batch_bytes = 256;
  expect_conforms({"edge"}, text, opt);
}

TEST(PipelineStitching, BoundaryExactMatchesAcrossEveryCutOffset) {
  // Slide a pattern across a batch boundary byte by byte so it ends on the
  // boundary, starts on it, and straddles it at every interior offset.
  const std::string needle = "abcd";
  for (std::size_t start = 248; start <= 256; ++start) {
    std::string text = random_text(512, 23 + start);
    text.replace(start, needle.size(), needle);
    PipelineOptions opt;
    opt.batch_bytes = 256;
    expect_conforms({needle}, text, opt);
  }
}

TEST(PipelineStitching, SingleByteBatches) {
  PipelineOptions opt;
  opt.batch_bytes = 1;  // pathological: every byte is its own batch
  opt.streams = 2;
  expect_conforms({"ab", "ba", "aab"}, random_text(48, 13), opt);
}

TEST(PipelineStitching, BatchLargerThanText) {
  PipelineOptions opt;
  opt.batch_bytes = 1u << 20;
  expect_conforms({"ab", "ca"}, random_text(300, 17), opt);
}

TEST(PipelineStitching, StreamCountDoesNotChangeMatches) {
  const std::string text = random_text(4000, 29);
  for (std::uint32_t streams : {1u, 2u, 4u}) {
    PipelineOptions opt;
    opt.batch_bytes = 600;
    opt.streams = streams;
    expect_conforms({"aba", "cc", "abcd"}, text, opt);
  }
}

TEST(Pipeline, EmptyTextSucceedsEmpty) {
  gpusim::DeviceMemory mem(16u << 20);
  const ac::PatternSet patterns({std::string("ab")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  auto got = MatchPipeline(small_gpu(), mem, ddfa, {}).run("");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().matches.empty());
  EXPECT_EQ(got.value().stats.batches, 0u);
}

TEST(Pipeline, InvalidOptionsReportStatusNotThrow) {
  gpusim::DeviceMemory mem(16u << 20);
  const ac::PatternSet patterns({std::string("ab")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);

  PipelineOptions opt;
  opt.streams = 0;
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run("abc");
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  opt = {};
  opt.chunk_bytes = 6;  // not a multiple of 4
  got = MatchPipeline(small_gpu(), mem, ddfa, opt).run("abc");
  ASSERT_FALSE(got.is_ok());
}

TEST(Pipeline, DeviceBudgetTooSmallReportsCapacity) {
  gpusim::DeviceMemory mem(1 << 20);
  const ac::PatternSet patterns({std::string("ab")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  PipelineOptions opt;
  opt.batch_bytes = 8u << 20;  // slot buffers alone exceed the 1 MB device
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(
      random_text(9u << 20, 31));
  ASSERT_FALSE(got.is_ok());
}

/// The critical path's three stages sum to the makespan, and none exceeds
/// its stage's busy time.
void expect_critical_path_sums_to_makespan(const PipelineStats& st) {
  EXPECT_NEAR(st.critical_h2d_seconds + st.critical_kernel_seconds + st.critical_d2h_seconds,
              st.makespan_seconds, st.makespan_seconds * 1e-12);
  EXPECT_LE(st.critical_h2d_seconds, st.h2d_busy_seconds * (1 + 1e-12));
  EXPECT_LE(st.critical_kernel_seconds, st.compute_busy_seconds * (1 + 1e-12));
  EXPECT_LE(st.critical_d2h_seconds, st.d2h_busy_seconds * (1 + 1e-12));
}

TEST(Pipeline, TimelineShowsOverlapWithTwoStreams) {
  gpusim::DeviceMemory mem(64u << 20);
  const ac::PatternSet patterns({std::string("ab")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);

  PipelineOptions opt;
  opt.batch_bytes = 4096;
  opt.streams = 2;
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(random_text(1 << 16, 37));
  ASSERT_TRUE(got.is_ok());
  const PipelineStats& st = got.value().stats;
  EXPECT_EQ(st.batches, 16u);
  EXPECT_GT(st.makespan_seconds, 0);
  // Four-letter text ships packed: at least 2 bits per input byte.
  EXPECT_GE(st.staged_bytes, kernels::packed_size(st.input_bytes, 2));
  EXPECT_GT(st.overlap_seconds, 0);  // some copy hid under some kernel
  EXPECT_GE(st.overlap_ratio, 0);
  EXPECT_LE(st.overlap_ratio, 1.0 + 1e-9);
  EXPECT_GE(st.latency_p99_seconds, st.latency_p50_seconds);
  expect_critical_path_sums_to_makespan(st);
  // Timeline carries all three op kinds, one triple per batch.
  EXPECT_EQ(got.value().timeline.size(), 3 * 16u);
}

TEST(Pipeline, EveryOpStartsWhenItsStreamAndQueueAreFree) {
  // Each stream stages into its own upload buffer, whose last reader is the
  // stream's previous kernel, so the pipeline adds no wait of its own: every
  // op starts exactly when its stream and its queue (upload, compute,
  // readback) are both free.
  const ac::Dfa dfa = ac::build_dfa(byte_path_patterns(), 8);
  const std::string packed_text = random_text(48u << 10, 47);
  const std::string byte_text = random_bytes(48u << 10, 47);
  for (const gpusim::SimMode mode : {gpusim::SimMode::Functional, gpusim::SimMode::Timed})
    for (const std::string* text : {&packed_text, &byte_text})
      for (const std::uint64_t batch_bytes : {1u << 10, 5u << 10, 16u << 10})
        for (const std::uint32_t streams : {1u, 2u, 3u, 4u, 8u}) {
          SCOPED_TRACE(testing::Message()
                       << (mode == gpusim::SimMode::Timed ? "timed" : "functional")
                       << (text == &packed_text ? " packed" : " bytes") << " batch "
                       << batch_bytes << " streams " << streams);
          gpusim::DeviceMemory mem(64u << 20);
          kernels::DeviceDfa ddfa(mem, dfa);
          PipelineOptions opt;
          opt.streams = streams;
          opt.batch_bytes = batch_bytes;
          opt.mode = mode;
          auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(*text);
          ASSERT_TRUE(got.is_ok()) << got.status().to_string();
          ASSERT_GT(got.value().stats.batches, 1u);
          std::vector<double> stream_end(streams, 0.0);
          double queue_end[3] = {0, 0, 0};  // indexed by StreamOpKind
          const std::vector<gpusim::StreamOp>& timeline = got.value().timeline;
          for (const gpusim::StreamOp& op : timeline) {
            double& queue = queue_end[static_cast<int>(op.kind)];
            EXPECT_EQ(op.start, std::max(stream_end[op.stream], queue)) << op.label;
            stream_end[op.stream] = op.end;
            queue = op.end;
            // The op that bound it ended exactly then.
            if (op.bound_by != gpusim::StreamOp::kNoOp)
              EXPECT_EQ(op.start, timeline[op.bound_by].end) << op.label;
            else
              EXPECT_EQ(op.start, 0.0) << op.label;
          }
          expect_critical_path_sums_to_makespan(got.value().stats);
        }
}

TEST(Pipeline, MakespanIsMonotonicInStreams) {
  // The historical plateau bug: streams=4 produced a byte-identical timeline
  // to streams=2 because the fixed double-buffer held each slot until D2H
  // end. With per-stream upload buffers and a dedicated readback queue,
  // overlap must strictly beat serial staging, and extra lanes must never
  // be slower.
  // (The strict streams=4 < streams=2 separation is a bench-regime property
  // — the 8000-pattern gate in bench/check_regression enforces it.)
  gpusim::DeviceMemory mem(128u << 20);
  const ac::PatternSet patterns({std::string("ab"), std::string("cde")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  const std::string text = random_text(8u << 20, 53);

  PipelineOptions opt;
  opt.batch_bytes = 256u << 10;
  opt.mode = gpusim::SimMode::Timed;

  opt.streams = 1;
  auto one = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(one.is_ok());
  opt.streams = 2;
  auto two = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(two.is_ok());
  opt.streams = 4;
  auto four = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(four.is_ok());

  EXPECT_LT(two.value().stats.makespan_seconds,
            one.value().stats.makespan_seconds);
  EXPECT_LE(four.value().stats.makespan_seconds,
            two.value().stats.makespan_seconds);
  for (const auto* run : {&one, &two, &four})
    expect_critical_path_sums_to_makespan(run->value().stats);
}

TEST(Pipeline, TimedModeReportsThroughputWithoutMatches) {
  gpusim::DeviceMemory mem(64u << 20);
  const ac::PatternSet patterns({std::string("ab"), std::string("cde")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);

  PipelineOptions opt;
  opt.batch_bytes = 64 << 10;
  opt.streams = 2;
  opt.mode = gpusim::SimMode::Timed;
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(random_text(1 << 20, 43));
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got.value().matches.empty());
  EXPECT_GT(got.value().stats.throughput_gbps(), 0);
  // Timing reuse: identical slice lengths reuse one simulated launch.
  EXPECT_EQ(got.value().stats.batches, 16u);
}

// ---- Batch split: each text divides evenly into the batch count that
// minimises an upload-bound pipeline's makespan over the link ----

/// A Timed gtx285 run of `text` against byte_path_patterns().
PipelineResult split_run(const std::string& text, PipelineOptions opt = {},
                         gpusim::HostObserver* host_observer = nullptr) {
  gpusim::DeviceMemory mem(64u << 20);
  const ac::Dfa dfa = ac::build_dfa(byte_path_patterns(), 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  opt.mode = gpusim::SimMode::Timed;
  auto got = MatchPipeline(gpusim::GpuConfig::gtx285(), mem, ddfa, opt, host_observer)
                 .run(text);
  EXPECT_TRUE(got.is_ok()) << got.status().to_string();
  return got.is_ok() ? std::move(got.value()) : PipelineResult{};
}

std::vector<std::uint64_t> owned_bytes(const PipelineResult& r) {
  std::vector<std::uint64_t> owned;
  for (const BatchTrace& t : r.batches) owned.push_back(t.owned_bytes);
  return owned;
}

TEST(PipelineBatchSplit, LinkSetsTheBatchCountOnGtx285) {
  // B t = 4 GB/s x 10 us = 40,000 B; the count is the smallest n with
  // n (n + 1) >= S / 40,000, S the staged bytes.
  EXPECT_EQ(split_run(random_bytes(32u << 10, 1)).stats.batches, 1u);
  EXPECT_EQ(split_run(random_bytes(128u << 10, 2)).stats.batches, 2u);
  // S / (B t) = 2 at 80,000 B: the tie keeps one batch, a byte more takes two.
  EXPECT_EQ(split_run(random_bytes(79999, 3)).stats.batches, 1u);
  EXPECT_EQ(split_run(random_bytes(80000, 3)).stats.batches, 1u);
  EXPECT_EQ(split_run(random_bytes(80001, 4)).stats.batches, 2u);
  EXPECT_EQ(split_run(random_bytes(512u << 10, 5)).stats.batches, 4u);
  // A 4-symbol text stages a quarter of its bytes: 512 KiB splits as 128 KiB.
  const PipelineResult dna = split_run(workload::make_dna_sequence(512u << 10, 6));
  EXPECT_EQ(dna.stats.batches, 2u);
  EXPECT_EQ(dna.stats.staged_bytes, kernels::packed_size((256u << 10) + 2, 2) +
                                        kernels::packed_size(256u << 10, 2));
}

TEST(PipelineBatchSplit, LargeTextTakesMoreBatchesThanTheCeilingNeeds) {
  // 64 MiB: n (n + 1) first reaches 1,677.7 at n = 41, past the 16 batches
  // the 4 MiB ceiling needs.
  const PipelineResult r = split_run(random_bytes(64u << 20, 7));
  EXPECT_EQ(r.stats.batches, 41u);
  EXPECT_EQ(r.stats.effective_batch_bytes, ((64u << 20) + 40) / 41);
}

TEST(PipelineBatchSplit, SplitIsEvenAndRespectsTheCeiling) {
  // 512 KiB + 1 B under a 64 KiB ceiling: the link wants 4 batches, the
  // ceiling needs 9, and the 9 are even rather than 8 full and a 1-byte tail.
  PipelineOptions opt;
  opt.batch_bytes = 64u << 10;
  const std::uint64_t len = (512u << 10) + 1;
  const std::vector<std::uint64_t> owned =
      owned_bytes(split_run(random_bytes(len, 8), opt));
  ASSERT_EQ(owned.size(), 9u);
  std::uint64_t total = 0;
  for (const std::uint64_t b : owned) {
    EXPECT_LE(b, opt.batch_bytes);
    EXPECT_GE(b + owned.size(), owned.front());
    total += b;
  }
  EXPECT_EQ(total, len);
}

TEST(PipelineBatchSplit, OneLaneSplitsOnlyAtTheCeiling) {
  // One lane overlaps nothing, so more batches would only add copy latency:
  // a text within batch_bytes stays whole, a longer one takes
  // ceil(L / batch_bytes) even batches.
  PipelineOptions opt;
  opt.streams = 1;
  EXPECT_EQ(owned_bytes(split_run(random_bytes(512u << 10, 9), opt)),
            (std::vector<std::uint64_t>{512u << 10}));
  opt.batch_bytes = 200u << 10;
  EXPECT_EQ(owned_bytes(split_run(random_bytes(512u << 10, 9), opt)),
            (std::vector<std::uint64_t>{174763, 174763, 174762}));
}

TEST(PipelineBatchSplit, RunAllocatesOneUploadBufferPerBatchUpToTheStreamCount) {
  // Four streams stage into four upload buffers, batch b into buffer
  // b mod 4 on stream b mod 4, so each buffer is written from one stream;
  // a run of fewer batches allocates only the buffers it writes. Counts the
  // distinct H2D destinations in the recorder's access records.
  const auto upload_buffers = [](std::size_t text_bytes) {
    hostcheck::Recorder recorder;
    PipelineOptions opt;
    opt.streams = 4;
    const PipelineResult r = split_run(random_bytes(text_bytes, 10), opt, &recorder);
    std::map<std::uint64_t, gpusim::HostOpRecord> ops;         // by op id
    std::map<std::uint64_t, std::set<std::uint32_t>> writers;  // by address
    for (const hostcheck::HostTrace::Record& record : recorder.trace().records) {
      if (const auto* op = std::get_if<gpusim::HostOpRecord>(&record)) {
        ops[op->op] = *op;
      } else if (const auto* access = std::get_if<gpusim::HostAccessRecord>(&record)) {
        const gpusim::HostOpRecord& writer = ops.at(access->op);
        if (writer.kind == gpusim::HostOpKind::kH2D)
          writers[access->addr].insert(writer.stream);
      }
    }
    for (const auto& [addr, streams] : writers)
      EXPECT_EQ(streams.size(), 1u) << "upload buffer at " << addr;
    return std::pair{r.stats.batches, std::uint64_t{writers.size()}};
  };
  EXPECT_EQ(upload_buffers(32u << 10), (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(upload_buffers(512u << 10), (std::pair<std::uint64_t, std::uint64_t>{4, 4}));
  EXPECT_EQ(upload_buffers(4u << 20), (std::pair<std::uint64_t, std::uint64_t>{10, 4}));
}

TEST(PipelineBatchSplit, FittedTailShareReplacesTheLinkOnlyAssumption) {
  // A fresh pipeline assumes the tail share r = 1. Once its batches span 2x
  // in staged size, r is the fitted slope of kernel seconds plus readback
  // payload / B against staged bytes, times B.
  gpusim::DeviceMemory mem(64u << 20);
  const ac::Dfa dfa = ac::build_dfa(byte_path_patterns(), 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  PipelineOptions opt;
  opt.mode = gpusim::SimMode::Timed;
  MatchPipeline pipe(gpu, mem, ddfa, opt);
  const auto run = [&](std::size_t bytes, std::uint64_t seed) {
    auto got = pipe.run(random_bytes(bytes, seed));
    EXPECT_TRUE(got.is_ok()) << got.status().to_string();
    return got.is_ok() ? std::move(got.value()) : PipelineResult{};
  };
  const auto tail = [&](const BatchTrace& t) {
    return t.kernel_seconds +
           static_cast<double>(t.output_bytes) / gpu.pcie_bytes_per_second;
  };

  EXPECT_EQ(pipe.tail_share(8), 1.0);
  const PipelineResult small = run(24u << 10, 11);
  const PipelineResult mid = run(40u << 10, 12);
  // 24 KiB and 40 KiB are within 2x of each other: still the assumption.
  EXPECT_EQ(pipe.tail_share(8), 1.0);
  const PipelineResult large = run(64u << 10, 13);
  ASSERT_EQ(small.batches.size() + mid.batches.size() + large.batches.size(), 3u);

  // Least-squares slope through the three single-batch runs.
  const std::vector<BatchTrace> points = {small.batches[0], mid.batches[0],
                                          large.batches[0]};
  double mx = 0, my = 0;
  for (const BatchTrace& t : points) {
    mx += static_cast<double>(t.staged_bytes) / 3;
    my += tail(t) / 3;
  }
  double sxy = 0, sxx = 0;
  for (const BatchTrace& t : points) {
    const double dx = static_cast<double>(t.staged_bytes) - mx;
    sxy += dx * (tail(t) - my);
    sxx += dx * dx;
  }
  const double share = pipe.tail_share(8);
  EXPECT_NEAR(share, std::max(0.0, sxy / sxx * gpu.pcie_bytes_per_second), 1e-9);
  // This dictionary's kernel barely grows with its batch, far below r = 1.
  EXPECT_LT(share, 0.5);
  // Packed batches keep a fit per width of their own, still empty here.
  EXPECT_EQ(pipe.tail_share(2), 1.0);
  EXPECT_EQ(pipe.tail_share(6), 1.0);

  // 200 KiB: r = 1 takes 2 batches (n (n + 1) >= 5.12); the fitted share
  // sees too little tail to save for a second copy's latency.
  PipelineOptions fresh = opt;
  EXPECT_EQ(split_run(random_bytes(200u << 10, 14), fresh).stats.batches, 2u);
  std::uint64_t n = 1;
  while (static_cast<double>(n * (n + 1)) < share * (200u << 10) / 40000.0) ++n;
  EXPECT_EQ(run(200u << 10, 14).stats.batches, n);
  EXPECT_EQ(n, 1u);
}

// ---- Packed input: kShared slices of at most 4 distinct byte classes ship
// at 2 bits per symbol ----

TEST(PipelinePacking, AnNInTheOverlapCarrySetsThatSlicesWidth) {
  // Five 1 KB batches of DNA against 12-bp motifs (an 11-byte carry). The
  // text's only N sits 4 bytes into batch 3, inside batch 2's carry: batch 2
  // owns only A/C/G/T yet ships 6-bit codes, because the check covers its
  // whole slice. Batch 3 owns the N and ships 6-bit codes too; the rest pack
  // at 2 bits.
  constexpr std::uint64_t kBatch = 1024;
  constexpr std::uint64_t kCarry = 11;
  std::string text = workload::make_dna_sequence(5 * kBatch, 71);
  text[3 * kBatch + 4] = 'N';
  const ac::PatternSet patterns({text.substr(2 * kBatch - 6, 12), text.substr(3 * kBatch - 3, 12),
                                 text.substr(500, 12), "ACGTAC"});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  ASSERT_EQ(dfa.max_pattern_length(), kCarry + 1);

  gpusim::DeviceMemory mem(64u << 20);
  kernels::DeviceDfa ddfa(mem, dfa);
  PipelineOptions opt;
  opt.batch_bytes = kBatch;  // 5 KB splits evenly into five 1 KB batches
  opt.match_capacity = 128;
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  const PipelineResult& r = got.value();
  EXPECT_FALSE(r.overflowed);
  EXPECT_EQ(r.matches, ac::find_all(dfa, text));

  ASSERT_EQ(r.batches.size(), 5u);
  std::uint64_t payload = 0;
  for (const BatchTrace& t : r.batches) {
    const std::uint64_t slice = t.owned_bytes + (t.index + 1 < 5 ? kCarry : 0);
    const std::uint32_t bits = t.index == 2 || t.index == 3 ? 6 : 2;
    EXPECT_EQ(t.symbol_bits, bits) << "batch " << t.index;
    EXPECT_EQ(t.staged_bytes, kernels::packed_size(slice, bits)) << "batch " << t.index;
    payload += t.staged_bytes;
  }
  EXPECT_EQ(r.stats.staged_bytes, payload);
  EXPECT_EQ(payload, 2 * kernels::packed_size(kBatch + kCarry, 2) +
                         2 * kernels::packed_size(kBatch + kCarry, 6) +
                         kernels::packed_size(kBatch, 2));
}

TEST(PipelinePacking, EachSliceShipsAtTheWidthItsDistinctBytesNeed) {
  // One batch per run, so each text is one slice: 4 distinct classes stage
  // at 2 bits, 5 and 64 at 6 bits, 65 as bytes. A doubled-byte pattern per
  // value gives every value its own class. Matches stay exact at every width.
  constexpr std::size_t kLen = 3001;
  for (const std::uint32_t values : {4u, 5u, 64u, 65u}) {
    SCOPED_TRACE(std::to_string(values) + " distinct bytes");
    Rng rng(values);
    std::string text(kLen, '\0');
    for (char& c : text) c = static_cast<char>(0x20 + rng.next_below(values));
    for (std::uint32_t v = 0; v < values; ++v) text[17 * v] = static_cast<char>(0x20 + v);
    std::vector<std::string> patterns = {text.substr(40, 3), text.substr(1000, 6),
                                         text.substr(kLen - 5, 5)};
    for (std::uint32_t v = 0; v < values; ++v)
      patterns.emplace_back(2, static_cast<char>(0x20 + v));
    const ac::Dfa dfa = ac::build_dfa(ac::PatternSet(patterns), 8);
    gpusim::DeviceMemory mem(64u << 20);
    kernels::DeviceDfa ddfa(mem, dfa);
    auto got = MatchPipeline(small_gpu(), mem, ddfa, PipelineOptions{}).run(text);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    const PipelineResult& r = got.value();
    EXPECT_EQ(r.matches, ac::find_all(dfa, text));
    ASSERT_EQ(r.batches.size(), 1u);
    const std::uint32_t bits = values <= 4 ? 2 : values <= 64 ? 6 : 8;
    EXPECT_EQ(r.batches[0].symbol_bits, bits);
    EXPECT_EQ(r.stats.staged_bytes, kernels::packed_size(kLen, bits));
  }
}

TEST(PipelinePacking, BytesInNoPatternShareOneSymbol) {
  // The width counts byte classes, not bytes: random bytes against {ab, ba}
  // map to three classes (a, b and the 254 bytes in no pattern) and ship at
  // 2 bits, with every match exact.
  const std::string text = random_bytes(3001, 91) + "abab";
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"ab", "ba"}), 8);
  gpusim::DeviceMemory mem(64u << 20);
  kernels::DeviceDfa ddfa(mem, dfa);
  ASSERT_EQ(ddfa.host_dfa().classes().count, 3u);
  auto got = MatchPipeline(small_gpu(), mem, ddfa, PipelineOptions{}).run(text);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  const PipelineResult& r = got.value();
  EXPECT_FALSE(r.matches.empty());
  EXPECT_EQ(r.matches, ac::find_all(dfa, text));
  ASSERT_EQ(r.batches.size(), 1u);
  EXPECT_EQ(r.batches[0].symbol_bits, 2u);
  EXPECT_EQ(r.stats.staged_bytes, kernels::packed_size(text.size(), 2));
}

TEST(PipelinePacking, TimingReuseKeysOnPackedAsWellAsSliceLength) {
  // Equal-length batches cycle through the three widths: 2 bits (pure
  // A/C/G/T), 6 bits (one N in the middle of the owned range) and bytes (61
  // more values there), and slices of one width are identical, so each
  // batch's reused timing must be exactly what a fresh one-batch Timed run
  // of its slice simulates. A cache keyed on slice length alone would hand
  // batch 1 the 2-bit timing of batch 0.
  constexpr std::size_t kBatch = 16u << 10;
  constexpr std::size_t kCarry = 11;
  const std::string two_bit = workload::make_dna_sequence(kBatch, 83);
  std::string six_bit = two_bit;
  six_bit[kBatch / 2] = 'N';
  std::string bytes = six_bit;
  for (int v = 0; v < 61; ++v) bytes[kBatch / 2 + 1 + v] = static_cast<char>(0x80 + v);
  const std::string* kinds[] = {&two_bit, &six_bit, &bytes};
  std::string text;
  for (int b = 0; b < 5; ++b) text += *kinds[b % 3];
  // N and each of the 61 values get a byte class of their own.
  std::vector<std::string> patterns = {two_bit.substr(100, 12), two_bit.substr(9000, 7),
                                       "ACGT", "NN"};
  for (int v = 0; v < 61; ++v) patterns.emplace_back(2, static_cast<char>(0x80 + v));
  const ac::Dfa dfa = ac::build_dfa(ac::PatternSet(patterns), 8);

  const auto timed_run = [&](std::string_view input, std::uint64_t batch_bytes) {
    gpusim::DeviceMemory mem(64u << 20);
    kernels::DeviceDfa ddfa(mem, dfa);
    PipelineOptions opt;
    opt.batch_bytes = batch_bytes;
    opt.mode = gpusim::SimMode::Timed;
    auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(input);
    EXPECT_TRUE(got.is_ok()) << got.status().to_string();
    return got.is_ok() ? std::move(got.value()) : PipelineResult{};
  };
  const PipelineResult run = timed_run(text, kBatch);  // five even 16 KB batches
  ASSERT_EQ(run.batches.size(), 5u);
  std::vector<double> fresh;
  for (const BatchTrace& t : run.batches) {
    SCOPED_TRACE(t.index);
    const std::uint64_t slice = t.index + 1 < 5 ? kBatch + kCarry : kBatch;
    const std::uint32_t bits = std::array<std::uint32_t, 3>{2, 6, 8}[t.index % 3];
    EXPECT_EQ(t.symbol_bits, bits);
    EXPECT_EQ(t.staged_bytes, kernels::packed_size(slice, bits));
    const PipelineResult one =
        timed_run(std::string_view(text).substr(t.index * kBatch, slice), slice);
    ASSERT_EQ(one.batches.size(), 1u);
    EXPECT_EQ(one.batches[0].staged_bytes, t.staged_bytes);
    EXPECT_EQ(t.kernel_seconds, one.batches[0].kernel_seconds);
    fresh.push_back(one.batches[0].kernel_seconds);
  }
  EXPECT_NE(fresh[0], fresh[1]) << "2-bit and 6-bit batches time alike";
  EXPECT_NE(fresh[1], fresh[2]) << "6-bit and byte batches time alike";
  EXPECT_NE(fresh[0], fresh[2]) << "2-bit and byte batches time alike";
}

// ---- Per-batch geometry: chunk_bytes == 0 derives chunk and block from
// each batch's slice length so small batches still fill the device ----

using Geometry = std::pair<std::uint32_t, std::uint32_t>;  // chunk, block

/// Each batch's (chunk_bytes, threads_per_block) for a Timed run over
/// `text_bytes` of text against a dictionary whose longest pattern is
/// `max_len` bytes. The picks do not depend on the simulation mode.
std::vector<Geometry> batch_geometry(const gpusim::GpuConfig& cfg,
                                     std::size_t max_len, std::size_t text_bytes,
                                     PipelineOptions opt) {
  gpusim::DeviceMemory mem(64u << 20);
  const ac::PatternSet patterns({std::string(max_len, 'a'), std::string("ab")});
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  kernels::DeviceDfa ddfa(mem, dfa);
  opt.mode = gpusim::SimMode::Timed;
  auto got = MatchPipeline(cfg, mem, ddfa, opt).run(random_text(text_bytes, 53));
  EXPECT_TRUE(got.is_ok()) << got.status().to_string();
  std::vector<Geometry> picks;
  if (got.is_ok())
    for (const BatchTrace& t : got.value().batches)
      picks.emplace_back(t.chunk_bytes, t.threads_per_block);
  return picks;
}

TEST(PipelineGeometry, PipelineBatchGetsSmallestChunkInBlocksOf64) {
  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  PipelineOptions opt;
  opt.batch_bytes = 64u << 10;  // 128 KB splits evenly into two 64 KB batches
  // 64 KB + 15 B slice: 4,097 threads at 16 B; 64 threads/block is the
  // largest block leaving 2 blocks per SM. So does the last, uncarried
  // 64 KB slice; a 15-byte batch falls back to 32 threads.
  EXPECT_EQ(batch_geometry(gpu, 16, 128u << 10, opt),
            (std::vector<Geometry>{{16, 64}, {16, 64}}));
  EXPECT_EQ(batch_geometry(gpu, 16, 15, opt), (std::vector<Geometry>{{16, 32}}));
  // A 12-bp DNA dictionary: 12-byte chunks.
  EXPECT_EQ(batch_geometry(gpu, 12, 128u << 10, opt),
            (std::vector<Geometry>{{12, 64}, {12, 64}}));
}

TEST(PipelineGeometry, TinyBatchFallsBackTo32ThreadBlocks) {
  EXPECT_EQ(batch_geometry(gpusim::GpuConfig::gtx285(), 16, 2048, {}),
            (std::vector<Geometry>{{16, 32}}));
}

TEST(PipelineGeometry, SlicePastHalfResidencyKeeps32ByteChunksAtTwoBlocksPerSm) {
  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  PipelineOptions opt;
  opt.streams = 1;  // one batch per text
  // 30 SMs x 1024 threads / 2 = 15,360 threads: exactly that many 16-byte
  // chunks keep 16 B; one more byte switches to 32 B.
  EXPECT_EQ(batch_geometry(gpu, 16, 15360 * 16, opt),
            (std::vector<Geometry>{{16, 256}}));
  EXPECT_EQ(batch_geometry(gpu, 16, 15360 * 16 + 1, opt),
            (std::vector<Geometry>{{32, 128}}));
  // A 1 MB slice: the block shrinks from 256 to 224 so two staged blocks
  // share one SM's shared memory.
  const std::vector<Geometry> wide = batch_geometry(gpu, 16, 1u << 20, opt);
  ASSERT_EQ(wide, (std::vector<Geometry>{{32, 224}}));
  EXPECT_EQ(gpu.occupancy_blocks(224, (224 + 1) * 32), 2u);
  // threads_per_block is a ceiling on the derived block.
  opt.threads_per_block = 96;
  EXPECT_EQ(batch_geometry(gpu, 16, 1u << 20, opt),
            (std::vector<Geometry>{{32, 96}}));
}

TEST(PipelineGeometry, ExplicitChunkKeepsRequestedGeometry) {
  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  PipelineOptions opt;
  opt.chunk_bytes = 64;
  opt.threads_per_block = 192;
  opt.batch_bytes = 64u << 10;
  EXPECT_EQ(batch_geometry(gpu, 16, 2048, opt),
            (std::vector<Geometry>{{64, 192}}));
  EXPECT_EQ(batch_geometry(gpu, 16, (64u << 10) + 15, opt),
            (std::vector<Geometry>{{64, 192}, {64, 192}}));
  // Explicit geometry still shrinks a block whose staging cannot fit the SM.
  opt.chunk_bytes = 32;
  opt.threads_per_block = 512;
  EXPECT_EQ(batch_geometry(gpu, 16, 2048, opt),
            (std::vector<Geometry>{{32, 480}}));
}

TEST(PipelineGeometry, EveryDerivedBlockFitsTwoPerSmWithTheSixBitTableAndExchange) {
  // Every width's derived (chunk, block) leaves 2 blocks per SM once
  // kernels::staged_shared_bytes counts the 6-bit table and exchange, for
  // every overlap whose chunk can fit two 32-thread blocks at all, across
  // both chunk regimes and every block ceiling.
  const gpusim::GpuConfig gpu = gpusim::GpuConfig::gtx285();
  const std::uint64_t half_resident = std::uint64_t{gpu.num_sms} * gpu.max_threads_per_sm / 2;
  std::uint64_t checked = 0;
  for (const std::uint32_t ceiling : {64u, 256u, 512u, 1024u})
    for (std::uint32_t overlap = 0; overlap < 128; ++overlap)
      for (const std::uint32_t bits : {8u, 6u, 2u}) {
        PipelineOptions opt;
        opt.threads_per_block = ceiling;
        const std::uint32_t smallest = (overlap + 4) & ~3u;
        for (const std::uint64_t slice :
             {std::uint64_t{1}, std::uint64_t{4096}, half_resident * smallest,
              half_resident * smallest + 1, std::uint64_t{1} << 20, std::uint64_t{8} << 20}) {
          const BatchGeometry g = resolve_geometry(opt, gpu, overlap, slice, bits);
          if (2 * kernels::staged_shared_bytes(g.chunk_bytes, 32, bits) > gpu.shared_mem_bytes)
            continue;  // not even 32 threads fit twice: the rule's fallback
          const std::uint32_t shared =
              kernels::staged_shared_bytes(g.chunk_bytes, g.threads_per_block, bits);
          EXPECT_LE(2 * shared, gpu.shared_mem_bytes)
              << "chunk " << g.chunk_bytes << ", block " << g.threads_per_block << ", "
              << bits << " bits";
          EXPECT_GE(gpu.occupancy_blocks(g.threads_per_block, shared), 2u);
          ++checked;
        }
      }
  EXPECT_GT(checked, 4000u);
  // At 36 B chunks the 224-thread block that bytes stage fits only without
  // the 6-bit table and exchange (225 x 36 + 7 x 160 = 9,220 B > 8,192 B).
  const PipelineOptions opt;
  EXPECT_EQ(resolve_geometry(opt, gpu, 32, 8u << 20, 8).threads_per_block, 224u);
  EXPECT_EQ(resolve_geometry(opt, gpu, 32, 8u << 20, 6).threads_per_block, 192u);
}

// Exact matches in every branch of the rule — smallest vs 32-byte chunk,
// fallback vs grid-limited block, mixed geometries across one run's batches.
TEST(PipelineGeometry, DerivedGeometryMatchesSerialInEveryBranch) {
  bool smallest_chunk = false, wide_chunk = false;
  bool fallback_block = false, grid_block = false, mixed_run = false;
  for (const std::size_t max_len : {3u, 8u, 12u, 16u}) {
    const std::uint32_t smallest = (static_cast<std::uint32_t>(max_len) + 3) & ~3u;
    // Unbatched 1 KB and 16 KB texts, and a 96 KB text cut into three even
    // 32,760 B batches: past half residency on 4 SMs, a 16-byte pattern's
    // carried slices take 32 B chunks and the last, uncarried one 16 B.
    for (const auto& [text_bytes, batch_bytes] :
         {std::pair<std::size_t, std::uint64_t>{1024, 4u << 20},
          {16u << 10, 4u << 20},
          {3 * 32760, 32760}}) {
      const std::string text = random_text(text_bytes, 61 + max_len);
      const std::vector<std::string> patterns = {
          text.substr(text_bytes / 2, max_len), "ab", "cd", "abc"};
      const ac::Dfa dfa = ac::build_dfa(ac::PatternSet(patterns), 8);
      PipelineOptions opt;
      opt.batch_bytes = batch_bytes;
      opt.match_capacity = 256;
      gpusim::DeviceMemory mem(64u << 20);
      kernels::DeviceDfa ddfa(mem, dfa);
      auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
      ASSERT_TRUE(got.is_ok()) << got.status().to_string();
      EXPECT_FALSE(got.value().overflowed);
      EXPECT_EQ(got.value().matches, ac::find_all(dfa, text))
          << "max pattern " << max_len << ", " << text_bytes << " B";
      for (const BatchTrace& t : got.value().batches) {
        (t.chunk_bytes == smallest ? smallest_chunk : wide_chunk) = true;
        (t.threads_per_block == 32 ? fallback_block : grid_block) = true;
        mixed_run |= t.chunk_bytes != got.value().batches.front().chunk_bytes;
      }
    }
  }
  EXPECT_TRUE(smallest_chunk && wide_chunk && fallback_block && grid_block);
  EXPECT_TRUE(mixed_run);
}

// --- match output: a u16 count per thread and one word per record ---------

/// All 256 single-byte patterns: every scanned byte ends a match.
ac::PatternSet every_byte_patterns() {
  std::vector<std::string> pats;
  for (int b = 0; b < 256; ++b) pats.emplace_back(1, static_cast<char>(b));
  return ac::PatternSet(pats);
}

TEST(PipelineOutput, EveryByteEndingAMatchFillsExactlyTheScanBound) {
  // Overlap 0, so a thread's scan bound S is its 32 B chunk: each thread
  // emits exactly S records, and S slots always suffice.
  const ac::PatternSet patterns = every_byte_patterns();
  const ac::Dfa dfa = ac::build_dfa(patterns, 8);
  const std::string text = random_bytes(32 * 640, 59);
  const std::uint64_t threads = text.size() / 32;
  gpusim::DeviceMemory mem(64u << 20);
  kernels::DeviceDfa ddfa(mem, dfa);
  PipelineOptions opt;
  opt.chunk_bytes = 32;
  opt.threads_per_block = 64;
  opt.batch_bytes = text.size();
  for (const std::uint32_t capacity : {32u, 33u, 1000u}) {
    opt.match_capacity = capacity;
    auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    SCOPED_TRACE(capacity);
    EXPECT_FALSE(got.value().overflowed);
    EXPECT_EQ(got.value().total_reported, threads * 32);
    EXPECT_EQ(got.value().matches, ac::find_all(dfa, text));
    // D2H: a u16 count per thread plus one word per stored record.
    EXPECT_EQ(got.value().stats.output_bytes, threads * 2 + threads * 32 * 4);
  }
  opt.match_capacity = 31;  // S - 1
  auto got = MatchPipeline(small_gpu(), mem, ddfa, opt).run(text);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_TRUE(got.value().overflowed);
  EXPECT_EQ(got.value().total_reported, threads * 32);
  EXPECT_EQ(got.value().stats.output_bytes, threads * 2 + threads * 31 * 4);
}

TEST(PipelineOutput, CapacitiesMustStayBelowTheCountWordLimit) {
  // Counts cross D2H as saturating u16 words: a capacity of 65,535 or more
  // could not tell a saturated count from a complete one.
  PipelineOptions opt;
  opt.match_capacity = kernels::MatchBuffer::kMaxCount - 1;
  EXPECT_TRUE(opt.validate().is_ok());
  for (const std::uint32_t bad : {0u, kernels::MatchBuffer::kMaxCount, 1u << 20}) {
    PipelineOptions ac_opt;
    ac_opt.match_capacity = bad;
    EXPECT_EQ(ac_opt.validate().code(), StatusCode::kInvalidArgument) << bad;
  }
}

/// The first `count` three-letter words "aaa", "aab", ...
std::vector<std::string> three_letter_words(std::size_t count) {
  std::vector<std::string> words;
  for (std::size_t i = 0; i < count; ++i)
    words.push_back({static_cast<char>('a' + i / 676 % 26),
                     static_cast<char>('a' + i / 26 % 26), static_cast<char>('a' + i % 26)});
  return words;
}

TEST(PipelineOutput, ScanBoundTooWideForTheRecordWordIsCapacityExceeded) {
  // 5,000 patterns' 5,000-plus DFA states x a 1 MiB (+2) scan bound is past
  // 2^32 record codes. The chip's shared memory admits a 32-thread block of
  // 1 MiB chunks, so the record word, not staging, is what refuses.
  EngineOptions eopt;
  eopt.chunk_bytes = 1u << 20;
  DeviceOptions dopt;
  dopt.gpu = small_gpu();
  dopt.gpu.shared_mem_bytes = 64u << 20;
  auto device = Device::create(dopt);
  ASSERT_TRUE(device.is_ok()) << device.status().to_string();
  auto engine =
      Engine::create(device.value(), ac::PatternSet(three_letter_words(5000)), eopt);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  ASSERT_GE(engine.value().dfa().state_count(), 5000u);
  const std::size_t allocated = device.value().memory().allocated();
  auto scan = engine.value().scan(random_text(4096, 61));
  ASSERT_FALSE(scan.is_ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(scan.status().message().find("scan bound 1048578"), std::string::npos)
      << scan.status().to_string();
  EXPECT_EQ(device.value().memory().allocated(), allocated);  // nothing staged
}

TEST(Engine, ScanMatchesSerialReference) {
  const std::vector<std::string> pats = {"he", "she", "his", "hers"};
  const ac::PatternSet patterns(pats);
  std::string text = random_text(5000, 47);
  text.replace(100, 6, "ushers");
  text.replace(2047, 3, "his");  // spans the default... no, interior

  EngineOptions eopt;
  eopt.batch_bytes = 1024;
  DeviceOptions dopt;
  dopt.gpu = small_gpu();
  auto device = Device::create(dopt);
  ASSERT_TRUE(device.is_ok()) << device.status().to_string();
  auto engine = Engine::create(device.value(), patterns, eopt);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

  auto scan = engine.value().scan(text);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_EQ(scan.value().matches, ac::find_all(engine.value().dfa(), text));

  // Engines are reusable across scans.
  auto scan2 = engine.value().scan("ushers");
  ASSERT_TRUE(scan2.is_ok());
  EXPECT_EQ(scan2.value().matches.size(), 3u);  // she, he, hers
}

TEST(Engine, EmptyPatternSetFails) {
  auto device = Device::create({});
  ASSERT_TRUE(device.is_ok());
  auto engine = Engine::create(device.value(), ac::PatternSet{});
  ASSERT_FALSE(engine.is_ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace acgpu::pipeline
