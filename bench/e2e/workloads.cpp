#include "workloads.h"

#include <cmath>

#include "util/rng.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace e2e {

using acgpu::derive_seed;
using acgpu::Rng;

namespace {

constexpr Workload kWorkloads[] = {
    {"bulk_text_1k", Traffic::kBulk, false, 1000},
    {"bulk_text_20k", Traffic::kBulk, false, 20000},
    {"bulk_dna_1k", Traffic::kBulk, true, 1000},
    {"sessions_text_1k", Traffic::kSessions, false, 1000},
};

/// derive_seed stream per generator.
enum SeedStream : std::uint64_t {
  kCorpusStream = 1,
  kPoolStream = 2,
  kPatternStream = 3,
  kScheduleStream = 4,
};

// Bulk: a pass is 100 requests log-spaced over [64 KB, 1 MB], about 35 MB,
// at seeded offsets into a 32 MB corpus.
constexpr std::uint32_t kRequests = 100;
constexpr double kRequestMin = 64 << 10;
constexpr double kRequestMax = 1 << 20;
constexpr std::uint64_t kBulkCorpusBytes = 32u << 20;

// Sessions: a pass is 1,000 ticks of 1..29 chunks (about 15,000 chunks,
// 44 MB) log-spaced over [64 B, 16 KB], each chunk to a random one of 256
// sessions. The tick period is about twice the mean simulated tick service.
constexpr std::uint32_t kSessions = 256;
constexpr std::uint32_t kTicks = 1000;
constexpr std::uint32_t kMaxChunksPerTick = 29;
constexpr double kChunkMin = 64;
constexpr double kChunkMax = 16 << 10;
constexpr double kTickPeriodSeconds = 120e-6;

// Text dictionaries are word-aligned 6-16 byte substrings of a separate
// corpus drawn from the same Markov model; DNA motifs are 12 bp cut from
// the scanned genome with 10% of bases mutated.
constexpr std::uint64_t kPatternPoolBytes = 4u << 20;
constexpr std::uint32_t kMotifLength = 12;
constexpr double kMotifMutation = 0.10;

/// --quick divides every count by this.
constexpr std::uint32_t kQuickDivisor = 20;

/// n sizes spread evenly in log space over [lo, hi] (the midpoints of n
/// equal log-width strata), in ascending order.
std::vector<std::uint64_t> log_ladder(std::uint32_t n, double lo, double hi) {
  std::vector<std::uint64_t> sizes(n);
  for (std::uint32_t i = 0; i < n; ++i)
    sizes[i] = static_cast<std::uint64_t>(
        std::llround(lo * std::pow(hi / lo, (i + 0.5) / n)));
  return sizes;
}

std::string make_text(const Workload& w, std::uint64_t bytes,
                      std::uint64_t seed) {
  const std::uint64_t s = derive_seed(seed, kCorpusStream);
  return w.dna ? acgpu::workload::make_dna_sequence(bytes, s)
               : acgpu::workload::make_corpus(bytes, s);
}

acgpu::ac::PatternSet make_patterns(const Workload& w, const std::string& text,
                                    std::uint64_t seed) {
  const std::uint64_t s = derive_seed(seed, kPatternStream);
  if (w.dna)
    return acgpu::workload::extract_dna_motifs(text, w.patterns, kMotifLength,
                                               kMotifMutation, s);
  const std::string pool = acgpu::workload::make_corpus(
      kPatternPoolBytes, derive_seed(seed, kPoolStream));
  acgpu::workload::ExtractConfig ec;
  ec.count = w.patterns;
  ec.min_length = 6;
  ec.max_length = 16;
  ec.seed = s;
  ec.word_aligned = true;
  return acgpu::workload::extract_patterns(pool, ec);
}

void make_bulk(Inputs& in, const Workload& w, std::uint64_t seed, bool quick) {
  const std::uint32_t n = quick ? kRequests / kQuickDivisor : kRequests;
  const std::uint64_t corpus_bytes =
      quick ? kBulkCorpusBytes / kQuickDivisor : kBulkCorpusBytes;
  in.corpus = make_text(w, corpus_bytes, seed);
  Rng rng(derive_seed(seed, kScheduleStream));
  std::vector<std::uint64_t> sizes = log_ladder(n, kRequestMin, kRequestMax);
  rng.shuffle(sizes);
  for (const std::uint64_t bytes : sizes)
    in.requests.push_back({rng.next_below(corpus_bytes - bytes + 1), bytes});
}

void make_sessions(Inputs& in, const Workload& w, std::uint64_t seed,
                   bool quick) {
  const std::uint32_t ticks = quick ? kTicks / kQuickDivisor : kTicks;
  Rng rng(derive_seed(seed, kScheduleStream));
  std::vector<std::uint32_t> counts(ticks);
  std::uint32_t chunks = 0;
  for (std::uint32_t k = 0; k < ticks; ++k) {
    counts[k] = 1 + k * kMaxChunksPerTick / ticks;
    chunks += counts[k];
  }
  rng.shuffle(counts);
  std::vector<std::uint64_t> sizes = log_ladder(chunks, kChunkMin, kChunkMax);
  rng.shuffle(sizes);

  // Each session reads consecutive bytes of its own region; lay the regions
  // end to end once every session's total is known.
  in.streams.assign(kSessions, Slice{});
  in.ticks.resize(ticks);
  std::size_t next = 0;
  for (std::uint32_t k = 0; k < ticks; ++k) {
    for (std::uint32_t c = 0; c < counts[k]; ++c) {
      const auto session = static_cast<std::uint32_t>(rng.next_below(kSessions));
      Slice& stream = in.streams[session];
      in.ticks[k].push_back({session, {stream.bytes, sizes[next]}});
      stream.bytes += sizes[next++];
    }
  }
  std::uint64_t offset = 0;
  for (Slice& stream : in.streams) {
    stream.offset = offset;
    offset += stream.bytes;
  }
  for (std::vector<Feed>& tick : in.ticks)
    for (Feed& f : tick) f.text.offset += in.streams[f.session].offset;
  in.corpus = make_text(w, offset, seed);
  in.tick_period_seconds = kTickPeriodSeconds;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed, bool quick) {
  Inputs in;
  if (workload.traffic == Traffic::kBulk)
    make_bulk(in, workload, seed, quick);
  else
    make_sessions(in, workload, seed, quick);
  in.patterns = make_patterns(workload, in.corpus, seed);
  return in;
}

}  // namespace e2e
