// The AC kernel over the compressed table (run_ac_kernel's
// DeviceCompressedDfa overload), run in Functional mode so every block
// executes: exact matches, the plan's refusals, and a seeded property that
// the compressed launch reports what the dense launch and ac::find_all do at
// every store scheme, packing and chunk width.
#include "kernels/compressed_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "kernels/ac_kernel.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::kernels {
namespace {

struct Fixture {
  gpusim::GpuConfig cfg;
  gpusim::DeviceMemory mem;
  ac::PatternSet patterns;
  ac::Dfa dfa;
  ac::CompressedStt cstt;
  DeviceCompressedDfa dcdfa;
  gpusim::DevAddr text_addr;
  std::string text;

  Fixture(std::vector<std::string> pats, std::string text_in)
      : cfg(gpusim::GpuConfig::gtx285()),
        mem(128 << 20),
        patterns(std::move(pats)),
        dfa(ac::build_dfa(patterns, 8)),
        cstt(dfa),
        dcdfa(mem, cstt, dfa),
        text_addr(0),
        text(std::move(text_in)) {
    cfg.num_sms = 4;
    text_addr = upload_class_text(mem, dcdfa, text);
  }

  static AcLaunchSpec spec(std::uint32_t chunk, std::uint32_t tpb,
                           std::uint32_t capacity) {
    AcLaunchSpec s;
    s.chunk_bytes = chunk;
    s.threads_per_block = tpb;
    s.match_capacity = capacity;
    s.sim.mode = gpusim::SimMode::Functional;
    return s;
  }

  AcLaunchOutcome run(std::uint32_t chunk = 32, std::uint32_t tpb = 64,
                      std::uint32_t capacity = 64) {
    const std::size_t mark = mem.mark();
    auto out = run_ac_kernel(cfg, mem, dcdfa, text_addr, text.size(),
                             spec(chunk, tpb, capacity));
    mem.release(mark);
    return out;
  }

  std::vector<ac::Match> expected() const {
    auto m = ac::find_all(dfa, text);
    std::sort(m.begin(), m.end());
    return m;
  }
};

TEST(CompressedKernel, MatchesSerialOnPaperExample) {
  Fixture f({"he", "she", "his", "hers"}, "ushers and sheep hide his herbs ushers");
  const auto out = f.run();
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(CompressedKernel, EnglishCorpusExtractedPatterns) {
  const std::string corpus = workload::make_corpus(20000, 91);
  workload::ExtractConfig ec;
  ec.count = 60;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
  Fixture f({patterns.begin(), patterns.end()}, corpus);
  ASSERT_FALSE(f.expected().empty());
  EXPECT_EQ(f.run(64, 128, 128).matches.matches, f.expected());
}

TEST(CompressedKernel, BoundaryStraddlingMatches) {
  std::string text(6000, 'y');
  for (std::size_t pos : {30ul, 63ul, 2040ul, 4095ul})
    text.replace(pos, 8, "boundary");
  Fixture f({"boundary", "ound"}, text);
  EXPECT_EQ(f.run().matches.matches, f.expected());
}

TEST(CompressedKernel, DenseOverlapping) {
  Fixture f({"aa", "aba", "a"}, std::string(800, 'a'));
  const auto out = f.run(32, 64, 96);
  EXPECT_FALSE(out.matches.overflowed);
  EXPECT_EQ(out.matches.matches, f.expected());
}

TEST(CompressedKernel, UsesBothTexturesAndSmallerFootprint) {
  const std::string corpus = workload::make_corpus(30000, 92);
  workload::ExtractConfig ec;
  ec.count = 500;
  ec.word_aligned = true;
  const ac::PatternSet patterns = workload::extract_patterns(corpus, ec);
  Fixture f({patterns.begin(), patterns.end()}, corpus);
  const auto out = f.run(64, 128, 64);
  EXPECT_EQ(out.matches.matches, f.expected());
  // The device table is much smaller than the paper's byte-wide STT, and a
  // quarter of the dense class table or less.
  EXPECT_LT(f.dcdfa.device_bytes(),
            std::size_t{f.dfa.state_count()} * f.dfa.byte_pitch() * 4 / 4);
  EXPECT_LT(f.dcdfa.device_bytes(), DeviceDfa::upload_bytes(f.dfa) / 4);
  EXPECT_GT(out.sim.metrics.tex_requests, 0u);
}

TEST(CompressedKernel, ValidatesSpec) {
  Fixture f({"abcdefgh"}, "text with abcdefgh inside");
  AcLaunchSpec spec = Fixture::spec(30, 64, 64);
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
               Error);
  spec.chunk_bytes = 4;  // overlap 7 >= chunk
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
               Error);
}

TEST(CompressedKernel, PlanRefusesGlobalOnlyAndGlobalPlacement) {
  // The root row is staged with the text, and the rows and targets are
  // textures: neither the global-only approach nor the global STT
  // placement can read the compressed table.
  Fixture f({"he", "she", "his", "hers"}, "ushers and sheep hide his herbs ushers");
  AcLaunchSpec spec = Fixture::spec(32, 64, 64);
  ASSERT_NO_THROW(run_ac_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec));
  spec.approach = Approach::kGlobalOnly;
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
               Error);
  spec.approach = Approach::kShared;
  spec.stt_placement = SttPlacement::kGlobal;
  EXPECT_THROW(run_ac_kernel(f.cfg, f.mem, f.dcdfa, f.text_addr, f.text.size(), spec),
               Error);
}

// --- Seeded property: compressed = dense = find_all -------------------------

/// 40 random patterns of 1 to 12 bytes over `alphabet`, then `cover` in
/// 8-byte slices, so every byte of `cover` labels a trie edge.
std::vector<std::string> random_patterns(Rng& rng, const std::string& alphabet,
                                         const std::string& cover) {
  std::vector<std::string> out;
  for (int i = 0; i < 40; ++i) {
    std::string p;
    for (std::uint64_t n = rng.next_in(1, 12); n > 0; --n)
      p.push_back(alphabet[rng.next_below(alphabet.size())]);
    out.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < cover.size(); i += 8) out.push_back(cover.substr(i, 8));
  return out;
}

/// Random text over `alphabet` with the patterns that lie in it planted,
/// some with their case flipped where the flipped byte lies in it too.
std::string random_text(Rng& rng, const std::string& alphabet,
                        const std::vector<std::string>& patterns, std::size_t size) {
  const auto in_alphabet = [&](char c) { return alphabet.find(c) != std::string::npos; };
  std::vector<std::string> plantable;
  for (const std::string& p : patterns)
    if (std::all_of(p.begin(), p.end(), in_alphabet)) plantable.push_back(p);
  std::string text;
  while (text.size() < size) {
    if (!plantable.empty() && rng.next_bool(0.2)) {
      std::string p = plantable[rng.next_below(plantable.size())];
      if (rng.next_bool(0.3))
        for (char& c : p)
          if (in_alphabet(static_cast<char>(c ^ 0x20))) c = static_cast<char>(c ^ 0x20);
      text += p;
    } else {
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
  }
  text.resize(size);
  return text;
}

std::string range(char first, char last) {
  std::string s;
  for (int c = first; c <= last; ++c) s.push_back(static_cast<char>(c));
  return s;
}

/// Uploads class text the way the launch reads it: bytes when `symbols` is
/// empty, else packed against it and followed by 8 zero bytes, as the
/// pipeline stages it.
gpusim::DevAddr upload_symbols(gpusim::DeviceMemory& mem, const std::string& classes,
                               const std::optional<SymbolTable>& symbols) {
  if (!symbols) return upload_text(mem, classes);
  std::vector<std::uint8_t> packed(packed_size(classes.size(), symbols->bits()));
  pack_text(classes, *symbols, packed.data());
  const gpusim::DevAddr addr = mem.alloc(packed.size() + 8);
  mem.copy_in(addr, packed.data(), packed.size());
  mem.fill(addr + packed.size(), 0, 8);
  return addr;
}

TEST(CompressedKernel, MatchesTheDenseLaunchAtEverySchemePackingAndChunk) {
  struct Dictionary {
    const char* name;
    std::string pattern_alphabet;
    std::string cover;          ///< bytes every dictionary of this kind holds
    std::string text_alphabet;  ///< what the texts draw from
    bool folded;                ///< build_dfa_folded(ascii_fold_map())
    std::uint32_t words;        ///< bitmap words per row
  };
  const std::string all_bytes = range('\0', '\x7f') + range('\x80', '\xff');
  const std::string four = "\x01\x80\xfe\x7f";
  const Dictionary dictionaries[] = {
      // 5 classes: DNA texts pack at 2 bits.
      {"dna", "ACGT", "ACGT", "ACGT", false, 1},
      // 21 classes (<= 32, one bitmap word); the texts' values pack at 6.
      {"letters", range('a', 't'), range('a', 't'), range('a', 'z') + " ", false, 1},
      // 45 classes (33..64, two words), each folded letter class holding two
      // bytes; the texts pack at 6 bits.
      {"folded", range('a', 'z') + range('0', '9') + "!#$%&*+-",
       range('a', 'z') + range('0', '9') + "!#$%&*+-",
       range('A', 'Z') + range('a', 'z') + range('0', '9') + "!#$%&*+- ", true, 2},
      // 256 classes (eight words), one per byte value: texts over every byte
      // ship unpacked, and texts over four bytes pack at 2 bits.
      {"all-bytes", all_bytes, all_bytes, all_bytes, false, 8},
      {"all-bytes-four", four, all_bytes, four, false, 8},
  };
  const StoreScheme schemes[] = {StoreScheme::kDiagonal, StoreScheme::kCoalescedNaive,
                                 StoreScheme::kSequential};
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;
  Rng rng(3207);
  std::uint32_t packed_2 = 0, packed_6 = 0, unpacked = 0;
  for (const Dictionary& d : dictionaries) {
    for (int round = 0; round < 3; ++round) {
      const std::vector<std::string> pats =
          random_patterns(rng, d.pattern_alphabet, d.cover);
      const ac::PatternSet set(pats);
      const ac::Dfa dfa =
          d.folded ? ac::build_dfa_folded(set, ac::ascii_fold_map()) : ac::build_dfa(set);
      const ac::CompressedStt cstt(dfa);
      ASSERT_EQ(cstt.bitmap_words(), d.words) << d.name << ": " << dfa.classes().count;
      const std::string text =
          random_text(rng, d.text_alphabet, pats, rng.next_in(300, 1500));
      std::vector<ac::Match> want = ac::find_all(dfa, text);
      std::sort(want.begin(), want.end());

      const std::string classes = dfa.classes().map(text);
      const std::optional<SymbolTable> table = symbol_table(classes);
      std::vector<std::optional<SymbolTable>> packings{std::nullopt};
      if (table) packings.push_back(table);

      gpusim::DeviceMemory mem(32 << 20);
      const DeviceDfa ddfa(mem, dfa);
      const DeviceCompressedDfa dcdfa(mem, cstt, dfa);
      const std::uint32_t overlap = dfa.max_pattern_length() - 1;
      const std::uint32_t narrowest = (overlap + 4 + 3) / 4 * 4;
      for (const std::optional<SymbolTable>& symbols : packings) {
        const gpusim::DevAddr addr = upload_symbols(mem, classes, symbols);
        if (!symbols)
          ++unpacked;
        else
          ++(symbols->bits() == 2 ? packed_2 : packed_6);
        for (const StoreScheme scheme : schemes) {
          for (const std::uint32_t chunk : {narrowest, narrowest + 4, narrowest + 16}) {
            SCOPED_TRACE(std::string(d.name) + " round " + std::to_string(round) +
                         " " + to_string(scheme) + " chunk " + std::to_string(chunk) +
                         " bits " + std::to_string(symbol_bits(symbols)));
            AcLaunchSpec spec = Fixture::spec(chunk, 64, 1024);
            spec.scheme = scheme;
            const std::size_t mark = mem.mark();
            const auto dense =
                run_ac_kernel(cfg, mem, ddfa, addr, text.size(), spec, symbols);
            const auto comp =
                run_ac_kernel(cfg, mem, dcdfa, addr, text.size(), spec, symbols);
            mem.release(mark);
            ASSERT_FALSE(comp.matches.overflowed);
            EXPECT_EQ(comp.matches.matches, want);
            EXPECT_EQ(dense.matches.matches, want);
            // The same overlap exit and state records: the same emissions.
            EXPECT_EQ(comp.matches.total_reported, dense.matches.total_reported);
          }
        }
      }
    }
  }
  // Every text path was exercised.
  EXPECT_GT(packed_2, 0u);
  EXPECT_GT(packed_6, 0u);
  EXPECT_GT(unpacked, 0u);
}

}  // namespace
}  // namespace acgpu::kernels
