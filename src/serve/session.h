// One live traffic stream inside the streaming session service (serve/).
//
// The paper's kernels — and the batched pipeline built on them — assume the
// whole input is resident and catch boundary-spanning matches with an
// X-byte overlap re-scan. A served stream cannot do that: data arrives in
// chunks, a pattern may straddle arbitrarily many chunk boundaries, and the
// previous chunk's bytes are gone by the time the next one arrives. A
// Session therefore carries just enough *state* across feed() calls to make
// chunked scanning exact without re-scanning history: one DFA state.
//
// The carried DFA state is, by construction, the longest suffix of
// everything fed so far that is a prefix of some pattern. Advancing it over
// the first X-1 bytes of a new chunk discovers every match that *spans* into
// the chunk (start before the chunk, end inside it); matches wholly inside
// the chunk are the bulk scanner's job. Because that suffix is at most X
// bytes long, the state after a long chunk can be recomputed from the
// chunk's last X bytes alone — host work per feed is O(X), independent of
// chunk size.
//
// A boundary match is therefore discovered exactly once, at the feed that
// completes it, with a global (stream-absolute) byte offset — and the bulk
// scanner never needs bytes from more than one chunk.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"
#include "util/error.h"

namespace acgpu::serve {

/// Deterministic session identity: the manager hands them out starting at 1
/// in open() order and never reuses one.
using SessionId = std::uint64_t;

/// Per-session quotas; 0 = unlimited.
struct SessionLimits {
  /// Total bytes a session may feed; further feeds fail kCapacityExceeded.
  std::uint64_t max_bytes = 0;
  /// Matches retained per session; beyond it matches are dropped and the
  /// session is marked truncated (the stats record how many).
  std::uint64_t max_matches = 0;
};

struct SessionStats {
  std::uint64_t bytes_fed = 0;
  std::uint64_t chunks_fed = 0;
  std::uint64_t matches_delivered = 0;  ///< retained (includes polled ones)
  std::uint64_t spanning_matches = 0;   ///< found by the boundary continuation
  std::uint64_t matches_dropped = 0;    ///< lost to the match quota
  bool truncated = false;               ///< match quota was hit at least once
};

/// A session's full portable state: everything needed to continue the
/// stream on ANOTHER service/device with identical results. The cluster
/// tier's rebalance protocol is export_session() on the failed shard ->
/// import_session() on a healthy one; because the carried state is O(max
/// pattern length) and the buffered matches are whatever the client has not
/// polled yet, a snapshot is small no matter how many bytes were fed.
/// StreamService::import_session refuses a dfa_state outside the importing
/// DFA's states, and a buffered match whose pattern id is outside the DFA's
/// patterns or that does not lie inside the first stats.bytes_fed bytes.
/// It also refuses stats no session can reach: bytes_fed or
/// matches_delivered past a set quota, more buffered matches than
/// matches_delivered, one (end, pattern) buffered twice, truncated
/// disagreeing with matches_dropped > 0, more spanning_matches than
/// matches_delivered + matches_dropped, and bytes_fed without chunks_fed.
struct SessionSnapshot {
  SessionId id = 0;
  std::int32_t dfa_state = 0;  ///< carried DFA state
  SessionLimits limits;
  SessionStats stats;               ///< bytes_fed continues global offsets
  std::vector<ac::Match> matches;   ///< buffered, not yet polled
};

class Session {
 public:
  /// `dfa` must outlive the session.
  Session(SessionId id, const ac::Dfa& dfa, const SessionLimits& limits);

  /// Restores a migrated session from its snapshot (same id, carried state,
  /// stats, and buffered matches). The snapshot's DFA state must be one of
  /// `dfa`'s states.
  Session(const SessionSnapshot& snapshot, const ac::Dfa& dfa);

  /// Portable copy of the session's state (see SessionSnapshot). Leaves the
  /// session untouched; the caller (StreamService::export_session) closes
  /// it afterwards so exactly one home exists per stream.
  SessionSnapshot snapshot() const;

  SessionId id() const { return id_; }

  /// Quota admission for `n` more bytes; checked before any state mutates.
  /// Also refuses a feed that would carry the stream offset past 2^64 - 1.
  Status admit_bytes(std::uint64_t n) const;

  /// Boundary continuation for the next chunk: emits every match spanning
  /// into `chunk` (global start before the chunk's first byte) into the
  /// delivery buffer, advances the carried DFA state, and bumps the global
  /// offset. Must be called exactly once per fed chunk, in feed order,
  /// *before* the chunk's bulk matches are delivered.
  void begin_chunk(std::string_view chunk);

  /// Delivery from the bulk scanner: `m.end` is a global byte offset. The
  /// match quota is applied here (spanning matches pass through too).
  /// Returns false when the quota dropped the match.
  bool deliver(ac::Match m);

  /// Global offset of the next byte to be fed.
  std::uint64_t bytes_fed() const { return stats_.bytes_fed; }

  /// Hands the buffered matches to the caller (poll). Order is discovery
  /// order, which interleaves boundary and bulk deliveries — normalize with
  /// ac::normalize_matches before comparing against a batch scan.
  std::vector<ac::Match> take_matches();
  std::size_t buffered() const { return matches_.size(); }

  const SessionStats& stats() const { return stats_; }

  /// Carried automaton context — exposed for tests and debugging.
  std::int32_t dfa_state() const { return state_; }

 private:
  void deliver_spanning(std::uint64_t global_end, std::int32_t pattern);

  SessionId id_ = 0;
  const ac::Dfa* dfa_ = nullptr;
  SessionLimits limits_;

  std::int32_t state_ = 0;  ///< carried DFA state (0 = root)

  std::vector<ac::Match> matches_;  ///< delivered, awaiting poll
  SessionStats stats_;
};

}  // namespace acgpu::serve
