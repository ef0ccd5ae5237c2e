#include "serve/session.h"

#include <algorithm>
#include <limits>
#include <string>

namespace acgpu::serve {

Session::Session(SessionId id, const ac::Dfa& dfa, const SessionLimits& limits)
    : id_(id), dfa_(&dfa), limits_(limits) {}

Session::Session(const SessionSnapshot& snapshot, const ac::Dfa& dfa)
    : Session(snapshot.id, dfa, snapshot.limits) {
  state_ = snapshot.dfa_state;
  stats_ = snapshot.stats;
  matches_ = snapshot.matches;
}

SessionSnapshot Session::snapshot() const {
  SessionSnapshot out;
  out.id = id_;
  out.dfa_state = state_;
  out.limits = limits_;
  out.stats = stats_;
  out.matches = matches_;
  return out;
}

Status Session::admit_bytes(std::uint64_t n) const {
  // Match ends are u64 stream offsets, so a feed may not carry bytes_fed past
  // 2^64 - 1; only an imported snapshot starts that close to it.
  if (n > std::numeric_limits<std::uint64_t>::max() - stats_.bytes_fed)
    return Status::capacity_exceeded(
        "session " + std::to_string(id_) + ": " + std::to_string(n) +
        " more bytes would carry its stream offset (" + std::to_string(stats_.bytes_fed) +
        " fed) past 2^64 - 1");
  if (limits_.max_bytes != 0 && stats_.bytes_fed + n > limits_.max_bytes)
    return Status::capacity_exceeded(
        "session " + std::to_string(id_) + ": byte quota " +
        std::to_string(limits_.max_bytes) + " exhausted (" +
        std::to_string(stats_.bytes_fed) + " fed, " + std::to_string(n) +
        " more)");
  return Status::ok();
}

bool Session::deliver(ac::Match m) {
  if (limits_.max_matches != 0 && stats_.matches_delivered >= limits_.max_matches) {
    ++stats_.matches_dropped;
    stats_.truncated = true;
    return false;
  }
  matches_.push_back(m);
  ++stats_.matches_delivered;
  return true;
}

void Session::deliver_spanning(std::uint64_t global_end, std::int32_t pattern) {
  ++stats_.spanning_matches;
  deliver(ac::Match{global_end, pattern});
}

void Session::begin_chunk(std::string_view chunk) {
  const std::uint32_t x = dfa_->max_pattern_length();
  const std::uint64_t base = stats_.bytes_fed;
  // A spanning match ends within the first X-1 chunk bytes (it starts at
  // least one byte earlier and is at most X long), so that prefix is the
  // only stretch the continuation has to walk.
  const std::size_t prefix =
      std::min<std::size_t>(chunk.size(), x > 0 ? x - 1 : 0);
  std::int32_t s = state_;
  for (std::size_t i = 0; i < prefix; ++i) {
    s = dfa_->next(s, static_cast<std::uint8_t>(chunk[i]));
    if (dfa_->is_match(s)) {
      for (const std::int32_t* p = dfa_->output_begin(s); p != dfa_->output_end(s); ++p) {
        // Keep spanning matches only: start = base + i + 1 - len < base.
        // Matches contained in the chunk are the bulk scanner's to report.
        // A start before the stream's first byte is impossible unless an
        // imported snapshot carried a state deeper than its bytes fed.
        const std::uint32_t len = dfa_->pattern_length(*p);
        if (len > i + 1 && len <= base + i + 1) deliver_spanning(base + i, *p);
      }
    }
  }
  if (chunk.size() >= x) {
    // The DFA state is the longest suffix of history that is a pattern
    // prefix — at most X bytes — so after a chunk of >= X bytes it is fully
    // determined by the chunk's last X bytes: re-root instead of walking
    // the whole chunk. (No match emission here: anything ending in these
    // bytes is contained in the chunk and belongs to the bulk scanner.)
    s = 0;
    for (std::size_t i = chunk.size() - x; i < chunk.size(); ++i)
      s = dfa_->next(s, static_cast<std::uint8_t>(chunk[i]));
  }
  // else: prefix == chunk.size() (chunk shorter than X), s is already exact.
  state_ = s;
  stats_.bytes_fed += chunk.size();
  ++stats_.chunks_fed;
}

std::vector<ac::Match> Session::take_matches() {
  std::vector<ac::Match> out;
  out.swap(matches_);
  return out;
}

}  // namespace acgpu::serve
