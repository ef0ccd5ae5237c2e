#include "ac/parallel_matcher.h"

#include <algorithm>
#include <thread>

#include "ac/chunking.h"
#include "ac/serial_matcher.h"
#include "util/error.h"

namespace acgpu::ac {

namespace {

unsigned resolve_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs `worker(w)` for w in [0, workers) on that many threads. Exceptions
/// from workers are rethrown on the calling thread (first one wins).
template <typename Fn>
void run_workers(unsigned workers, Fn&& worker) {
  if (workers == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(workers);
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        worker(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// The GPU decomposition on `workers` threads: one contiguous span of text
/// per worker, scanned from a fresh DFA state through the overlap carry, with
/// the ownership rule applied. Returns one Acc per worker, into which
/// add(acc, match) folded every match that worker's span owns.
template <typename Acc, typename Add>
std::vector<Acc> owned_per_span(const Dfa& dfa, std::string_view text,
                                unsigned workers, Add add) {
  const std::uint32_t overlap = required_overlap(dfa.max_pattern_length());
  const std::uint64_t span =
      std::max<std::uint64_t>(1, (text.size() + workers - 1) / workers);
  std::vector<Acc> per_span(workers);

  run_workers(workers, [&](unsigned w) {
    const std::uint64_t begin = w * span;
    if (begin >= text.size()) return;
    const std::uint64_t end = std::min<std::uint64_t>(text.size(), begin + span);
    const Chunk chunk{begin, end,
                      std::min<std::uint64_t>(text.size(), end + overlap)};
    const std::string_view window =
        text.substr(static_cast<std::size_t>(chunk.begin),
                    static_cast<std::size_t>(chunk.scan_end - chunk.begin));
    Acc acc{};
    match_serial(dfa, window, [&](std::uint64_t match_end, std::int32_t id) {
      if (chunk_owns_match(chunk, match_end, dfa.pattern_length(id)))
        add(acc, Match{match_end, id});
    }, /*base=*/chunk.begin);
    per_span[w] = std::move(acc);
  });
  return per_span;
}

}  // namespace

std::vector<Match> find_all_parallel(const Dfa& dfa, std::string_view text,
                                     unsigned threads) {
  const unsigned workers = resolve_threads(threads);
  if (text.empty()) return {};
  std::vector<std::vector<Match>> partial = owned_per_span<std::vector<Match>>(
      dfa, text, workers,
      [](std::vector<Match>& out, const Match& m) { out.push_back(m); });

  std::vector<Match> all;
  std::size_t total = 0;
  for (const auto& p : partial) total += p.size();
  all.reserve(total);
  for (auto& p : partial) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  return all;
}

std::uint64_t count_matches_parallel(const Dfa& dfa, std::string_view text,
                                     unsigned threads) {
  const unsigned workers = resolve_threads(threads);
  if (text.empty()) return 0;
  const std::vector<std::uint64_t> counts = owned_per_span<std::uint64_t>(
      dfa, text, workers, [](std::uint64_t& n, const Match&) { ++n; });

  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return total;
}

}  // namespace acgpu::ac
