// End-to-end correctness and model-behaviour tests for the two paper
// kernels, run in Functional mode so every block executes.
#include "kernels/ac_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ac/naive_matcher.h"
#include "ac/serial_matcher.h"
#include "gpusim/access_observer.h"
#include "gpusim/coalescer.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::kernels {
namespace {

struct Fixture {
  gpusim::GpuConfig cfg;
  gpusim::DeviceMemory mem;
  ac::PatternSet patterns;
  ac::Dfa dfa;
  DeviceDfa ddfa;
  gpusim::DevAddr text_addr;
  std::string text;

  Fixture(std::vector<std::string> pats, std::string text_in,
          std::uint32_t num_sms = 4)
      : cfg(gpusim::GpuConfig::gtx285()),
        mem(64 << 20),
        patterns(std::move(pats)),
        dfa(ac::build_dfa(patterns, 8)),
        ddfa(mem, dfa),
        text_addr(0),
        text(std::move(text_in)) {
    cfg.num_sms = num_sms;
    text_addr = upload_class_text(mem, ddfa, text);
  }

  AcLaunchOutcome run(Approach approach, StoreScheme scheme,
                      std::uint32_t chunk = 32, std::uint32_t tpb = 64,
                      std::uint32_t capacity = 64) {
    AcLaunchSpec spec;
    spec.approach = approach;
    spec.scheme = scheme;
    spec.chunk_bytes = chunk;
    spec.threads_per_block = tpb;
    spec.match_capacity = capacity;
    return run(spec);
  }

  AcLaunchOutcome run(AcLaunchSpec spec) {
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::size_t mark = mem.mark();
    auto out = run_ac_kernel(cfg, mem, ddfa, text_addr, text.size(), spec);
    mem.release(mark);
    return out;
  }

  /// The text mapped to the DFA's byte classes: the kernel's alphabet.
  std::string class_text() const { return dfa.classes().map(text); }

  /// The same launch over the class text packed against its symbol table (2
  /// or 6 bits per symbol), laid out the way the pipeline stages it: packed
  /// bytes, then 8 zero bytes.
  AcLaunchOutcome run_packed(AcLaunchSpec spec) {
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::string classes = class_text();
    const std::optional<SymbolTable> symbols = symbol_table(classes);
    EXPECT_TRUE(symbols.has_value()) << "text has more than 64 distinct classes";
    const std::size_t mark = mem.mark();
    std::vector<std::uint8_t> packed(packed_size(text.size(), symbols->bits()));
    pack_text(classes, *symbols, packed.data());
    const gpusim::DevAddr addr = mem.alloc(packed.size() + 8);
    mem.copy_in(addr, packed.data(), packed.size());
    mem.fill(addr + packed.size(), 0, 8);
    auto out = run_ac_kernel(cfg, mem, ddfa, addr, text.size(), spec, symbols);
    mem.release(mark);
    return out;
  }

  std::vector<ac::Match> expected() const {
    auto m = ac::find_all(dfa, text);
    std::sort(m.begin(), m.end());
    return m;
  }
};

TEST(AcKernel, GlobalOnlyMatchesSerialOnPaperExample) {
  Fixture f({"he", "she", "his", "hers"}, "ushers ushers his sheep hers");
  const auto out = f.run(Approach::kGlobalOnly, StoreScheme::kDiagonal);
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(AcKernel, SharedDiagonalMatchesSerialOnPaperExample) {
  Fixture f({"he", "she", "his", "hers"}, "ushers ushers his sheep hers");
  const auto out = f.run(Approach::kShared, StoreScheme::kDiagonal);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(AcKernel, SharedNaiveAndSequentialProduceSameMatches) {
  Fixture f({"he", "she", "his", "hers"}, "ushers and sheep hide his herbs");
  const auto expect = f.expected();
  EXPECT_EQ(f.run(Approach::kShared, StoreScheme::kCoalescedNaive).matches.matches,
            expect);
  EXPECT_EQ(f.run(Approach::kShared, StoreScheme::kSequential).matches.matches,
            expect);
}

TEST(AcKernel, MatchesStraddlingChunkAndBlockBoundaries) {
  // chunk 32, tpb 64: block boundary at byte 2048. Place patterns across
  // every kind of boundary.
  std::string text(5000, 'x');
  const std::string needle = "boundary";
  for (std::size_t pos : {30ul, 31ul, 63ul, 64ul, 2040ul, 2047ul, 4090ul})
    text.replace(pos, needle.size(), needle);
  Fixture f({"boundary", "ound"}, text);
  for (auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
    const auto out = f.run(approach, StoreScheme::kDiagonal);
    EXPECT_EQ(out.matches.matches, f.expected()) << to_string(approach);
  }
}

TEST(AcKernel, RaggedTailText) {
  // Text length not a multiple of chunk, block, or word size.
  Fixture f({"ab", "abc"}, workload::make_corpus(3001, 11) + "ab");
  for (auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
    const auto out = f.run(approach, StoreScheme::kDiagonal);
    EXPECT_EQ(out.matches.matches, f.expected()) << to_string(approach);
  }
}

TEST(AcKernel, EnglishCorpusWithExtractedPatterns) {
  const std::string corpus = workload::make_corpus(20000, 77);
  workload::ExtractConfig ec;
  ec.count = 50;
  ec.min_length = 4;
  ec.max_length = 12;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
  std::vector<std::string> pats(patterns.begin(), patterns.end());
  Fixture f(std::move(pats), corpus);
  ASSERT_GT(f.expected().size(), 0u);  // extracted patterns must occur
  for (auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
    const auto out = f.run(approach, StoreScheme::kDiagonal, 64, 128, 128);
    EXPECT_EQ(out.matches.matches, f.expected()) << to_string(approach);
  }
}

TEST(AcKernel, DenseMatchesBinaryAlphabet) {
  Rng rng(5);
  std::string text(4096, 'a');
  for (auto& c : text) c = rng.next_bool(0.5) ? 'a' : 'b';
  Fixture f({"a", "ab", "ba", "aba", "bb"}, text);
  const auto out = f.run(Approach::kShared, StoreScheme::kDiagonal, 32, 64, 96);
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(AcKernel, OverflowIsReportedNotSilent) {
  // Capacity 1 with a text full of matches must flag overflow.
  Fixture f({"a"}, std::string(512, 'a'));
  const auto out = f.run(Approach::kShared, StoreScheme::kDiagonal, 32, 64,
                         /*capacity=*/1);
  EXPECT_TRUE(out.matches.overflowed);
  EXPECT_EQ(out.matches.total_reported, 512u);  // counts are still exact
}

TEST(AcKernel, DiagonalEliminatesMatchPhaseConflicts) {
  const std::string corpus = workload::make_corpus(16384, 3);
  Fixture f({"the", "and", "tion"}, corpus);
  const auto naive = f.run(Approach::kShared, StoreScheme::kCoalescedNaive, 64, 128);
  const auto diag = f.run(Approach::kShared, StoreScheme::kDiagonal, 64, 128);
  // The naive layout's matching loads are 16-way conflicts; diagonal is
  // conflict-free except rare boundary effects.
  EXPECT_GT(naive.sim.metrics.shared_conflict_cycles, 0u);
  EXPECT_LT(diag.sim.metrics.shared_conflict_cycles,
            naive.sim.metrics.shared_conflict_cycles / 8);
  EXPECT_LT(diag.sim.cycles, naive.sim.cycles);
}

TEST(AcKernel, SharedApproachCutsGlobalTraffic) {
  const std::string corpus = workload::make_corpus(16384, 4);
  Fixture f({"the", "and"}, corpus);
  const auto global = f.run(Approach::kGlobalOnly, StoreScheme::kDiagonal, 64, 128);
  const auto shared = f.run(Approach::kShared, StoreScheme::kDiagonal, 64, 128);
  // Global-only re-reads every byte with terrible coalescing; shared stages
  // each byte once with coalesced words.
  EXPECT_GT(global.sim.metrics.global_transactions,
            shared.sim.metrics.global_transactions * 4);
  EXPECT_LT(shared.sim.cycles, global.sim.cycles);
}

TEST(AcKernel, SequentialStagingCoalescesWorseThanCooperative) {
  const std::string corpus = workload::make_corpus(16384, 5);
  Fixture f({"qzk"}, corpus);  // rare pattern: staging dominates
  const auto seq = f.run(Approach::kShared, StoreScheme::kSequential, 64, 128);
  const auto coop = f.run(Approach::kShared, StoreScheme::kDiagonal, 64, 128);
  EXPECT_GT(seq.sim.metrics.global_transactions,
            coop.sim.metrics.global_transactions * 2);
}

TEST(AcKernel, ValidatesSpec) {
  Fixture f({"abcdefgh"}, "some text with abcdefgh inside");
  AcLaunchSpec spec;
  spec.chunk_bytes = 30;  // not a multiple of 4
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.ddfa, f.text_addr, f.text.size(), spec),
               Error);
  spec.chunk_bytes = 4;  // overlap (7) would exceed the chunk
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.ddfa, f.text_addr, f.text.size(), spec),
               Error);
  spec.chunk_bytes = 64;
  spec.threads_per_block = 0;
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.ddfa, f.text_addr, f.text.size(), spec),
               Error);
}

TEST(AcKernel, PackedStagingMatchesByteStagingAtEveryChunkSchemeAndTail) {
  // Packed staging expands each loaded byte into the word the byte path
  // stores, so everything from the shared store on (matches, bank
  // conflicts) is the same. Text lengths 1, 2 and 3 mod 4 leave a partial
  // last packed byte; 12-64 B chunks span the derived and paper widths.
  for (const std::size_t len : {3001u, 3002u, 3003u}) {
    const std::string text = workload::make_dna_sequence(len, len);
    Fixture f({text.substr(100, 8), text.substr(1500, 5), text.substr(len - 6, 6), "ACGT",
               "TT"},
              text);
    ASSERT_GT(f.expected().size(), 0u);
    for (const std::uint32_t chunk : {12u, 16u, 32u, 64u})
      for (const StoreScheme scheme : {StoreScheme::kSequential,
                                       StoreScheme::kCoalescedNaive, StoreScheme::kDiagonal}) {
        AcLaunchSpec spec;
        spec.scheme = scheme;
        spec.chunk_bytes = chunk;
        spec.threads_per_block = 64;
        spec.match_capacity = 128;
        const AcLaunchOutcome bytes = f.run(spec);
        const AcLaunchOutcome packed = f.run_packed(spec);
        SCOPED_TRACE("length " + std::to_string(len) + ", chunk " + std::to_string(chunk) +
                     ", " + to_string(scheme));
        EXPECT_FALSE(packed.matches.overflowed);
        EXPECT_EQ(packed.matches.matches, f.expected());
        EXPECT_EQ(packed.matches.matches, bytes.matches.matches);
        EXPECT_EQ(packed.sim.metrics.shared_max_degree, bytes.sim.metrics.shared_max_degree);
        EXPECT_EQ(packed.sim.metrics.shared_conflict_cycles,
                  bytes.sim.metrics.shared_conflict_cycles);
        // The same staging loads, each followed by the unpack's ALU work.
        EXPECT_EQ(packed.sim.metrics.global_requests, bytes.sim.metrics.global_requests);
        EXPECT_GT(packed.sim.metrics.warp_instructions, bytes.sim.metrics.warp_instructions);
      }
  }
}

/// Every word a launch's staging stores into its blocks' staged regions, by
/// (block, shared address): what each block staged, whatever the text's
/// width.
struct StagedWords final : gpusim::AccessObserver {
  std::uint32_t region = 0;  ///< staged region bytes, (block + 1) x chunk
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> words;

  std::uint32_t memory_access(const gpusim::Warp& w, gpusim::OpKind kind) override {
    if (kind != gpusim::OpKind::SharedStoreU32) return 0;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l] && w.addr[l] < region) words[{w.block_id, w.addr[l]}] = w.value[l];
    return 0;
  }
};

TEST(AcKernel, SixBitStagedBlockEqualsTheBytePathsAtEveryChunkSchemeAndTail) {
  // 6-bit staging turns each packed group back into the word the byte path
  // stages, through the warp's exchange and table, so every block's staged
  // region holds the same words, the matches are the same, and the table
  // and exchange add no bank conflict. Lengths 0-3 mod 4 leave every
  // partial last group; 12-64 B chunks span the derived and paper widths.
  // A doubled-byte pattern per value gives every value its own byte class,
  // so the class text holds 5 or 64 distinct symbols too.
  for (const std::uint32_t values : {5u, 64u}) {
    for (const std::size_t len : {3000u, 3001u, 3002u, 3003u}) {
      Rng rng(values * 7919 + len);
      std::string text(len, '\0');
      for (char& c : text) c = static_cast<char>(0x30 + rng.next_below(values));
      for (std::uint32_t v = 0; v < values; ++v) text[31 * v] = static_cast<char>(0x30 + v);
      std::vector<std::string> pats = {text.substr(100, 8), text.substr(1500, 5),
                                       text.substr(len - 6, 6), text.substr(700, 2),
                                       text.substr(2222, 3)};
      for (std::uint32_t v = 0; v < values; ++v)
        pats.emplace_back(2, static_cast<char>(0x30 + v));
      Fixture f(std::move(pats), text);
      ASSERT_EQ(symbol_table(f.class_text())->count, values);
      ASSERT_GT(f.expected().size(), 0u);
      for (const std::uint32_t chunk : {12u, 16u, 20u, 32u, 64u})
        for (const StoreScheme scheme : {StoreScheme::kSequential,
                                         StoreScheme::kCoalescedNaive, StoreScheme::kDiagonal}) {
          SCOPED_TRACE(std::to_string(values) + " values, length " + std::to_string(len) +
                       ", chunk " + std::to_string(chunk) + ", " + to_string(scheme));
          AcLaunchSpec spec;
          spec.scheme = scheme;
          spec.chunk_bytes = chunk;
          spec.threads_per_block = 64;
          spec.match_capacity = 128;
          StagedWords byte_words, six_words;
          byte_words.region = six_words.region = (spec.threads_per_block + 1) * chunk;
          spec.sim.observer = &byte_words;
          const AcLaunchOutcome bytes = f.run(spec);
          spec.sim.observer = &six_words;
          const AcLaunchOutcome six = f.run_packed(spec);
          EXPECT_EQ(six_words.words, byte_words.words);
          EXPECT_FALSE(six.matches.overflowed);
          EXPECT_EQ(six.matches.matches, f.expected());
          EXPECT_EQ(six.matches.matches, bytes.matches.matches);
          EXPECT_EQ(six.shared_bytes, bytes.shared_bytes + 2 * 160);
          EXPECT_EQ(six.sim.metrics.shared_max_degree, bytes.sim.metrics.shared_max_degree);
          EXPECT_EQ(six.sim.metrics.shared_conflict_cycles,
                    bytes.sim.metrics.shared_conflict_cycles);
          // Cooperative staging loads each warp's packed words in one request,
          // as the byte path loads its words; the sequential baseline loads
          // the one or two words holding each group.
          if (scheme == StoreScheme::kSequential)
            EXPECT_GT(six.sim.metrics.global_requests, bytes.sim.metrics.global_requests);
          else
            EXPECT_EQ(six.sim.metrics.global_requests, bytes.sim.metrics.global_requests);
          EXPECT_GT(six.sim.metrics.warp_instructions, bytes.sim.metrics.warp_instructions);
        }
    }
  }
}

TEST(AcKernel, PackedTextNeedsTheSharedApproach) {
  Fixture f({"ACG"}, workload::make_dna_sequence(256, 3));
  AcLaunchSpec spec;
  spec.approach = Approach::kGlobalOnly;
  EXPECT_THROW(f.run_packed(spec), Error);
}

TEST(AcKernel, UploadTextPadsForWordLoads) {
  gpusim::DeviceMemory mem(1 << 16);
  const auto addr = upload_text(mem, "abc");
  EXPECT_EQ(mem.load_u8(addr + 0), 'a');
  EXPECT_EQ(mem.load_u8(addr + 2), 'c');
  // Whole-word load at the text end must not fault.
  EXPECT_NO_THROW(mem.load_u32(addr + 3));
}

TEST(AcKernel, TimedModeProducesStableExtrapolation) {
  const std::string corpus = workload::make_corpus(2 << 20, 9);
  Fixture f({"the", "and", "ing"}, corpus, /*num_sms=*/30);
  AcLaunchSpec spec;
  spec.chunk_bytes = 64;
  spec.threads_per_block = 128;
  spec.sim.mode = gpusim::SimMode::Timed;
  spec.sim.sample_waves = 2;
  const std::size_t mark = f.mem.mark();
  const auto timed = run_ac_kernel(f.cfg, f.mem, f.ddfa, f.text_addr,
                                   f.text.size(), spec);
  f.mem.release(mark);
  spec.sim.mode = gpusim::SimMode::Functional;
  const auto full = run_ac_kernel(f.cfg, f.mem, f.ddfa, f.text_addr,
                                  f.text.size(), spec);
  EXPECT_LT(timed.sim.simulated_blocks, full.sim.simulated_blocks);
  // Extrapolated timing within 30% of the fully simulated makespan.
  EXPECT_NEAR(timed.sim.cycles / full.sim.cycles, 1.0, 0.3);
}

/// STT reads the kernels must make, derived from a host walk of every
/// thread's chunk plus overlap under the overlap-exit rule — a lane stops at
/// the first step j >= 0 bytes past its chunk whose state has a depth <= j
/// below the saturation mark, without emitting there — lanes grouped 32 to
/// a warp.
struct SttReads {
  std::uint64_t lane_bytes = 0;          ///< scanned (lane, byte) pairs
  std::uint64_t full_lane_bytes = 0;     ///< the same without the exit
  std::uint64_t flagged_lane_steps = 0;  ///< of which land in a match state
  std::uint64_t warp_steps = 0;          ///< warp steps with a scanning lane
  std::uint64_t flagged_warp_steps = 0;  ///< warp steps with a flagged lane
  /// Warp steps with a flagged lane that still has one of its `slots` free.
  std::uint64_t storing_warp_steps = 0;
  std::uint64_t warps = 0;
  /// Scanned (lane, byte) pairs by the byte's class: the STT column read.
  std::map<std::uint32_t, std::uint64_t> columns;
};

SttReads expected_stt_reads(const Fixture& f, std::uint32_t chunk, std::uint32_t tpb,
                            std::uint32_t slots = ~0u) {
  const std::uint64_t len = f.text.size();
  const std::uint64_t overlap = f.dfa.max_pattern_length() - 1;
  const std::uint64_t threads = (len + chunk - 1) / chunk;
  const std::uint64_t padded = (threads + tpb - 1) / tpb * tpb;
  SttReads r;
  for (std::uint64_t warp = 0; warp < padded; warp += gpusim::Warp::kMaxLanes) {
    std::vector<std::uint64_t> flagged_at;  // step indices with a flagged lane
    std::vector<std::uint64_t> storing_at;  // ... whose lane still has a slot
    std::uint64_t warp_steps = 0;
    for (std::uint64_t t = warp; t < warp + gpusim::Warp::kMaxLanes; ++t) {
      const std::uint64_t begin = std::min(len, t * chunk);
      const std::uint64_t end = std::min(len, std::min(len, begin + chunk) + overlap);
      r.full_lane_bytes += end - begin;
      std::int32_t state = 0;
      std::uint64_t count = 0;
      std::uint64_t i = 0;
      while (i < end - begin) {
        const auto byte = static_cast<std::uint8_t>(f.text[begin + i]);
        state = f.dfa.next(state, byte);
        ++r.lane_bytes;
        ++r.columns[f.dfa.classes().of_byte[byte]];
        const std::uint32_t depth = f.dfa.depth(state);
        if (i + 1 >= chunk && depth < ac::Dfa::kMaxDepth && depth <= i + 1 - chunk) {
          ++i;
          break;
        }
        if (f.dfa.is_match(state)) {
          ++r.flagged_lane_steps;
          flagged_at.push_back(i);
          if (count++ < slots) storing_at.push_back(i);
        }
        ++i;
      }
      warp_steps = std::max(warp_steps, i);
    }
    const auto distinct = [](std::vector<std::uint64_t>& steps) {
      std::sort(steps.begin(), steps.end());
      return static_cast<std::uint64_t>(std::unique(steps.begin(), steps.end()) -
                                        steps.begin());
    };
    r.warp_steps += warp_steps;
    r.flagged_warp_steps += distinct(flagged_at);
    r.storing_warp_steps += distinct(storing_at);
    ++r.warps;
  }
  return r;
}

std::string repeated_paper_text() {
  std::string text;
  while (text.size() < 3000) text += "ushers ushers his sheep hers ";
  return text;
}

/// The launches the read-count and exactness tests below run: global-only, and shared
/// under each store scheme.
constexpr std::pair<Approach, StoreScheme> kEveryKernel[] = {
    {Approach::kGlobalOnly, StoreScheme::kDiagonal},
    {Approach::kShared, StoreScheme::kSequential},
    {Approach::kShared, StoreScheme::kCoalescedNaive},
    {Approach::kShared, StoreScheme::kDiagonal},
};

/// Counts STT reads by column through either placement: texture fetches at
/// x, and global u32 loads inside the STT at their offset in the row.
struct ColumnReads final : gpusim::AccessObserver {
  gpusim::DevAddr stt_addr = 0;
  std::uint64_t stt_bytes = 0;
  std::uint32_t pitch_bytes = 0;
  std::map<std::uint32_t, std::uint64_t> lanes;  ///< column -> lane reads

  explicit ColumnReads(const DeviceDfa& ddfa)
      : stt_addr(ddfa.stt_addr()),
        stt_bytes(ddfa.stt_bytes()),
        pitch_bytes(ddfa.stt_pitch_elems() * 4) {}

  std::uint32_t memory_access(const gpusim::Warp& w, gpusim::OpKind kind) override {
    for (std::uint32_t l = 0; l < w.lane_count; ++l) {
      if (!w.mask[l]) continue;
      if (kind == gpusim::OpKind::TexFetch) {
        ++lanes[w.tex_x[l]];
      } else if (kind == gpusim::OpKind::GlobalLoadU32 && w.addr[l] >= stt_addr &&
                 w.addr[l] < stt_addr + stt_bytes) {
        ++lanes[static_cast<std::uint32_t>((w.addr[l] - stt_addr) % pitch_bytes / 4)];
      }
    }
    return 0;
  }
};

TEST(AcKernel, TextureReadsOneWordPerByteScannedUpToEachLanesExit) {
  // One texture fetch per byte a lane scans before its overlap exit, at the
  // column of the byte's class: the transition word says which state
  // accepted, so no other column is read. For both approaches and every
  // store scheme: the reads must not depend on how the input was staged.
  Fixture f({"he", "she", "his", "hers"}, repeated_paper_text());
  const SttReads want = expected_stt_reads(f, 32, 64);
  ASSERT_GT(want.flagged_lane_steps, 0u);
  ASSERT_LT(want.lane_bytes, want.full_lane_bytes);  // the exit saves steps
  ASSERT_EQ(f.dfa.classes().count, 6u);  // e, h, r, s, i and the rest
  for (const auto& [approach, scheme] : kEveryKernel) {
    ColumnReads columns(f.ddfa);
    AcLaunchSpec spec;
    spec.approach = approach;
    spec.scheme = scheme;
    spec.chunk_bytes = 32;
    spec.threads_per_block = 64;
    spec.sim.observer = &columns;
    const auto out = f.run(spec);
    SCOPED_TRACE(std::string(to_string(approach)) + " " + to_string(scheme));
    EXPECT_EQ(out.matches.matches, f.expected());
    EXPECT_EQ(out.sim.metrics.tex_lane_fetches, want.lane_bytes);
    EXPECT_EQ(out.sim.metrics.tex_requests, want.warp_steps);
    EXPECT_EQ(columns.lanes, want.columns);
  }
}

TEST(AcKernel, GlobalPlacementReadsTheSameColumnsAsTheTexture) {
  // kGlobal reads the same transition words through plain loads: the two
  // placements differ by exactly one global request per warp step, and read
  // each scanned byte's class column.
  Fixture f({"he", "she", "his", "hers"}, repeated_paper_text());
  const SttReads want = expected_stt_reads(f, 32, 64);
  for (const auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
    AcLaunchSpec spec;
    spec.approach = approach;
    spec.chunk_bytes = 32;
    spec.threads_per_block = 64;
    const auto tex = f.run(spec);
    ColumnReads columns(f.ddfa);
    spec.stt_placement = SttPlacement::kGlobal;
    spec.sim.observer = &columns;
    const auto global = f.run(spec);
    SCOPED_TRACE(to_string(approach));
    EXPECT_EQ(global.matches.matches, f.expected());
    EXPECT_EQ(global.sim.metrics.tex_lane_fetches, 0u);
    EXPECT_EQ(global.sim.metrics.global_requests - tex.sim.metrics.global_requests,
              want.warp_steps);
    EXPECT_EQ(columns.lanes, want.columns);
  }
}

/// `n` bytes drawn uniformly from `alphabet`.
std::string random_over(std::string_view alphabet, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = alphabet[rng.next_below(alphabet.size())];
  return out;
}

TEST(AcKernel, OverlapExitKeepsAMaxLengthPatternAtEveryTailOffset) {
  // A pattern of the dictionary's maximum length X starting at each of a
  // chunk's last X - 1 owned bytes is the match the overlap exit must not
  // cut off. A shorter prefix of it, 1- and 2-byte patterns and a noisy
  // text keep the other lanes shallow, so exits happen all around it.
  // Chunks 12-64 B span the pipeline's derived widths; X is the chunk, the
  // widest overlap it allows.
  for (const std::uint32_t chunk : {12u, 16u, 20u, 32u, 64u}) {
    const std::string longest = random_over("abcd", chunk, chunk);
    // Every other chunk carries one placement, at tail offset k = 1..X-1,
    // so no two placements overlap.
    std::string text = random_over("abwx", 2 * std::size_t{chunk} * chunk + 7, chunk + 1);
    for (std::uint32_t k = 1; k < chunk; ++k)
      text.replace(2 * std::size_t{k} * chunk + chunk - k, chunk, longest);
    Fixture f({longest, longest.substr(0, chunk / 2), "w", "xa"}, text);
    const SttReads want = expected_stt_reads(f, chunk, 64);
    ASSERT_LT(want.lane_bytes, want.full_lane_bytes);
    for (const auto& [approach, scheme] : kEveryKernel) {
      const auto out = f.run(approach, scheme, chunk, 64, 128);
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", " + to_string(approach) + " " +
                   to_string(scheme));
      EXPECT_FALSE(out.matches.overflowed);
      EXPECT_EQ(out.matches.matches, f.expected());
      EXPECT_EQ(out.sim.metrics.tex_lane_fetches, want.lane_bytes);
    }
  }
}

TEST(AcKernel, PatternsPastTheDepthFieldStraddleChunksExactly) {
  // Depths saturate at 127 in the transition word, and a saturated depth
  // never exits. A 250 B pattern starting at a chunk's last owned byte
  // reaches depth 128 at 127 bytes past the chunk, where an unsaturated
  // test would read 127 <= 127 and drop the match.
  const std::uint32_t chunk = 256;
  const std::string p250 = random_over("abcd", 250, 1);
  const std::string p190 = random_over("abcd", 190, 2);
  const std::string p130 = random_over("abcd", 130, 3);
  std::string text = random_over("abcdwxyz", 40 * chunk + 13, 4);
  const std::pair<std::size_t, const std::string*> placements[] = {
      {2 * chunk - 1, &p250},   {4 * chunk - 130, &p250}, {6 * chunk - 249, &p250},
      {8 * chunk - 60, &p190},  {10 * chunk - 1, &p190},  {12 * chunk - 129, &p130},
      {14 * chunk - 1, &p130},  {16 * chunk + 5, &p250},  {19 * chunk - 2, &p250},
  };
  for (const auto& [pos, pattern] : placements) text.replace(pos, pattern->size(), *pattern);
  Fixture f({p250, p190, p130, "a", "wx"}, text);
  ASSERT_EQ(f.dfa.max_pattern_length(), 250u);
  const SttReads want = expected_stt_reads(f, chunk, 32);
  ASSERT_LT(want.lane_bytes, want.full_lane_bytes);
  for (const auto& [approach, scheme] : kEveryKernel) {
    const auto out = f.run(approach, scheme, chunk, 32, 512);
    SCOPED_TRACE(std::string(to_string(approach)) + " " + to_string(scheme));
    EXPECT_FALSE(out.matches.overflowed);
    EXPECT_EQ(out.matches.matches, f.expected());
    EXPECT_EQ(out.sim.metrics.tex_lane_fetches, want.lane_bytes);
  }
}

/// Counts a launch's global stores by width, and the most 128 B segments
/// any one of them touched.
struct StoreCounter final : gpusim::AccessObserver {
  std::uint64_t record_stores = 0;  ///< u32 stores: one word per record
  std::uint64_t count_stores = 0;   ///< u16 stores: the count words
  std::uint32_t max_record_txn = 0;
  std::uint32_t max_count_txn = 0;

  std::uint32_t memory_access(const gpusim::Warp& w, gpusim::OpKind kind) override {
    const bool u16 = kind == gpusim::OpKind::GlobalStoreU16;
    if (!u16 && kind != gpusim::OpKind::GlobalStoreU32) return 0;
    std::vector<gpusim::DevAddr> addrs;
    for (std::uint32_t l = 0; l < w.lane_count; ++l)
      if (w.mask[l]) addrs.push_back(w.addr[l]);
    const std::uint32_t txn = gpusim::coalesce(addrs, u16 ? 2 : 4, 128).transactions;
    ++(u16 ? count_stores : record_stores);
    std::uint32_t& worst = u16 ? max_count_txn : max_record_txn;
    worst = std::max(worst, txn);
    return 0;
  }
};

TEST(AcKernel, OneStorePerStoringStepAndOneCountStorePerWarp) {
  // A storing step writes one record word, and each warp ends with one u16
  // store of its lanes' counts. At 3 slots some lanes run out and stop
  // storing; their steps must not store.
  Fixture f({"he", "she", "his", "hers"}, repeated_paper_text());
  for (const std::uint32_t capacity : {64u, 3u}) {
    const SttReads want = expected_stt_reads(f, 32, 64, capacity);
    if (capacity == 3) {
      ASSERT_LT(want.storing_warp_steps, want.flagged_warp_steps);
    }
    for (const auto approach : {Approach::kGlobalOnly, Approach::kShared}) {
      StoreCounter stores;
      AcLaunchSpec spec;
      spec.approach = approach;
      spec.chunk_bytes = 32;
      spec.threads_per_block = 64;
      spec.match_capacity = capacity;
      spec.sim.observer = &stores;
      const auto out = f.run(spec);
      SCOPED_TRACE(std::string(to_string(approach)) + " capacity " +
                   std::to_string(capacity));
      EXPECT_EQ(out.matches.overflowed, capacity == 3);
      EXPECT_EQ(stores.record_stores, want.storing_warp_steps);
      EXPECT_EQ(stores.count_stores, want.warps);
      EXPECT_EQ(stores.max_count_txn, 1u);  // 32 lanes x 2 B in one segment
    }
  }
}

TEST(AcKernel, LanesStoringTheSameSlotShareOneSegment) {
  // Every byte ends a match, so at step i every lane of a warp stores its
  // i-th record: slot-major addresses make that one 128 B transaction.
  std::vector<std::string> every_byte;
  for (int b = 0; b < 256; ++b) every_byte.emplace_back(1, static_cast<char>(b));
  Rng rng(71);
  std::string text(64 * 32, '\0');
  for (char& c : text) c = static_cast<char>(rng.next_below(256));
  Fixture f(every_byte, text);
  StoreCounter stores;
  AcLaunchSpec spec;
  spec.approach = Approach::kShared;
  spec.chunk_bytes = 32;
  spec.threads_per_block = 64;
  spec.match_capacity = 32;
  spec.sim.observer = &stores;
  const auto out = f.run(spec);
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.total_reported, text.size());
  EXPECT_EQ(out.matches.stored_records, text.size());
  EXPECT_EQ(out.matches.matches, f.expected());
  EXPECT_EQ(stores.record_stores, 2u * 32);  // 2 warps x 32 steps
  EXPECT_EQ(stores.max_record_txn, 1u);
}

TEST(AcKernel, CountWordSaturatesAtTheU16Limit) {
  // One thread scans 70,000 matching bytes: its count word clamps to 65,535,
  // which still reads as overflow past the 8 slots.
  Fixture f({"a"}, std::string(70000, 'a'));
  AcLaunchSpec spec;
  spec.approach = Approach::kGlobalOnly;
  spec.chunk_bytes = 70000;
  spec.threads_per_block = 32;
  spec.match_capacity = 8;
  const auto out = f.run(spec);
  EXPECT_TRUE(out.matches.overflowed);
  EXPECT_EQ(out.matches.total_reported, MatchBuffer::kMaxCount);
  EXPECT_EQ(out.matches.stored_records, 8u);
  ASSERT_EQ(out.matches.matches.size(), 8u);
  EXPECT_EQ(out.matches.matches.back(), (ac::Match{7, 0}));
}

}  // namespace
}  // namespace acgpu::kernels
