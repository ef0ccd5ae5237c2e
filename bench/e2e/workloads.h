// The four workloads of acgpu_e2e and the seeded inputs they send.
//
// Every generator draws from one --seed through derive_seed, so a seed
// names its inputs exactly and the program under test only ever sees the
// generated text and dictionary. Request and chunk sizes are fixed
// log-spaced ladders that the seed only shuffles: every seed sends the same
// size mix, and only content, order and placement change between seeds.
// README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ac/pattern_set.h"

namespace e2e {

enum class Traffic { kBulk, kSessions };

struct Workload {
  const char* name;
  Traffic traffic;
  bool dna;                // DNA genome + motifs instead of Markov English
  std::uint32_t patterns;  // dictionary size
};

/// The workload called `name`, or null.
const Workload* find_workload(std::string_view name);
/// Every workload name, comma-separated (for --help and errors).
std::string workload_names();

/// A byte range of Inputs::corpus.
struct Slice {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// One Router::feed: the next `bytes` of `session`'s stream.
struct Feed {
  std::uint32_t session = 0;
  Slice text;
};

struct Inputs {
  std::string corpus;
  acgpu::ac::PatternSet patterns;
  /// Bulk: one pass of Router::scan requests, in send order.
  std::vector<Slice> requests;
  /// Sessions: one pass of ticks, in send order, and each session's whole
  /// stream (its feeds are consecutive bytes of it).
  std::vector<std::vector<Feed>> ticks;
  std::vector<Slice> streams;
  /// Simulated tick period of the sessions open loop.
  double tick_period_seconds = 0;

  std::string_view text(Slice s) const {
    return std::string_view(corpus).substr(s.offset, s.bytes);
  }
};

/// `quick` shrinks every count about 20x for the determinism smoke test.
Inputs make_inputs(const Workload& workload, std::uint64_t seed, bool quick);

}  // namespace e2e
