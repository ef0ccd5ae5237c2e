// Session snapshots are a decoder like the .acdfa loader: a rebalance hands
// import_session whatever another shard exported, and a hostile or corrupted
// one must end in a Status, never in a session that poll()s garbage, walks
// the STT out of range, or holds stats no session can reach. Seeded
// mutations of every field of an exported snapshot; each import either
// round-trips (the session re-exports exactly as imported and keeps
// serving) or is refused with kInvalidArgument.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "serve/service.h"
#include "util/rng.h"

namespace acgpu::serve {
namespace {

ServeOptions fast_options() {
  ServeOptions opt;
  opt.engine.mode = gpusim::SimMode::Functional;
  opt.device.gpu.num_sms = 4;
  opt.device.memory_bytes = 64u << 20;
  opt.engine.threads_per_block = 64;
  return opt;
}

StreamService make_service() {
  auto r =
      StreamService::create(ac::PatternSet({"he", "she", "his", "hers"}), fast_options());
  ACGPU_CHECK(r.is_ok(), r.status().to_string());
  return std::move(r).value();
}

/// A drained session's snapshot with buffered matches and a mid-pattern
/// carried state.
SessionSnapshot exported_snapshot() {
  StreamService a = make_service();
  const SessionId id = a.open().value();
  ACGPU_CHECK(a.feed(id, "ushers his ").is_ok(), "feed");
  ACGPU_CHECK(a.feed(id, "sheep sh").is_ok(), "feed");
  ACGPU_CHECK(a.drain().is_ok(), "drain");
  return a.export_session(id).value();
}

bool same_snapshot(const SessionSnapshot& a, const SessionSnapshot& b) {
  return a.id == b.id && a.dfa_state == b.dfa_state &&
         a.limits.max_bytes == b.limits.max_bytes &&
         a.limits.max_matches == b.limits.max_matches &&
         a.stats.bytes_fed == b.stats.bytes_fed &&
         a.stats.chunks_fed == b.stats.chunks_fed &&
         a.stats.matches_delivered == b.stats.matches_delivered &&
         a.stats.spanning_matches == b.stats.spanning_matches &&
         a.stats.matches_dropped == b.stats.matches_dropped &&
         a.stats.truncated == b.stats.truncated && a.matches == b.matches;
}

/// A value near the edges a field can take: small, around `near`, or huge.
std::uint64_t edge_value(Rng& rng, std::uint64_t near) {
  switch (rng.next_below(4)) {
    case 0: return rng.next_below(4);
    case 1: return near + rng.next_below(3) - 1;
    case 2: return ~std::uint64_t{0} - rng.next_below(2);
    default: return rng.next_u64();
  }
}

/// Mutates one to three fields of `s`.
void mutate(SessionSnapshot& s, Rng& rng) {
  const std::uint64_t fields = 1 + rng.next_below(3);
  for (std::uint64_t k = 0; k < fields; ++k) {
    switch (rng.next_below(11)) {
      case 0: s.id = edge_value(rng, s.id); break;
      case 1: s.dfa_state = static_cast<std::int32_t>(edge_value(rng, 10)); break;
      case 2: s.limits.max_bytes = edge_value(rng, s.stats.bytes_fed); break;
      case 3: s.limits.max_matches = edge_value(rng, s.matches.size()); break;
      case 4: s.stats.bytes_fed = edge_value(rng, s.stats.bytes_fed); break;
      case 5: s.stats.matches_delivered = edge_value(rng, s.matches.size()); break;
      case 6: s.stats.truncated = !s.stats.truncated; break;
      case 7:
        if (!s.matches.empty())
          s.matches[rng.next_below(s.matches.size())].pattern =
              static_cast<std::int32_t>(edge_value(rng, 4));
        break;
      case 8:
        if (!s.matches.empty())
          s.matches[rng.next_below(s.matches.size())].end =
              edge_value(rng, s.stats.bytes_fed);
        break;
      case 9:
        if (!s.matches.empty())
          s.matches.push_back(s.matches[rng.next_below(s.matches.size())]);
        break;
      default:
        if (rng.next_bool(0.5) && !s.matches.empty())
          s.matches.erase(s.matches.begin() + static_cast<std::ptrdiff_t>(
                                                  rng.next_below(s.matches.size())));
        else
          s.matches.push_back(ac::Match{edge_value(rng, s.stats.bytes_fed),
                                        static_cast<std::int32_t>(edge_value(rng, 4))});
        break;
    }
  }
}

TEST(SnapshotImportFuzz, AFeedPastTheLastStreamOffsetIsRefused) {
  // A snapshot 3 bytes short of 2^64 fed bytes imports (its state and
  // matches are in range), but no feed may wrap its offset: 11 more bytes
  // would report "he" at end 1.
  StreamService b = make_service();
  SessionSnapshot s;
  s.id = 7;
  s.stats.bytes_fed = ~std::uint64_t{0} - 2;
  s.stats.chunks_fed = 1;
  ASSERT_TRUE(b.import_session(s).is_ok());
  EXPECT_EQ(b.feed(7, "xx hers his").code(), StatusCode::kCapacityExceeded);
  ASSERT_TRUE(b.feed(7, "xh").is_ok());  // ends at offset 2^64 - 1
  ASSERT_TRUE(b.drain().is_ok());
  EXPECT_TRUE(b.poll(7).value().empty());
}

TEST(SnapshotImportFuzz, AStateDeeperThanTheStreamReportsNoMatchBeforeIt) {
  // The carried state "he" after 1 byte fed is impossible, but it imports
  // (state and matches in range). Feeding "rs" completes "hers", which
  // would start one byte before the stream: it is not reported.
  StreamService b = make_service();
  SessionSnapshot s;
  s.id = 7;
  s.dfa_state = b.dfa().next(b.dfa().next(0, 'h'), 'e');
  s.stats.bytes_fed = 1;
  s.stats.chunks_fed = 1;
  ASSERT_TRUE(b.import_session(s).is_ok());
  ASSERT_TRUE(b.feed(7, "rs").is_ok());
  ASSERT_TRUE(b.drain().is_ok());
  EXPECT_TRUE(b.poll(7).value().empty());
}

/// The import of `s` into a fresh service.
Status import_into_fresh(const SessionSnapshot& s) {
  StreamService b = make_service();
  return b.import_session(s);
}

TEST(SnapshotImportFuzz, BytesFedPastTheByteQuotaAreRefused) {
  SessionSnapshot s = exported_snapshot();
  s.limits.max_bytes = s.stats.bytes_fed;
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.limits.max_bytes = s.stats.bytes_fed - 1;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, DeliveriesPastTheMatchQuotaAreRefused) {
  SessionSnapshot s = exported_snapshot();
  s.limits.max_matches = s.stats.matches_delivered;
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.limits.max_matches = s.stats.matches_delivered - 1;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, MoreBufferedMatchesThanDeliveredAreRefused) {
  SessionSnapshot s = exported_snapshot();
  ASSERT_EQ(s.stats.matches_delivered, s.matches.size());
  s.stats.matches_delivered = s.matches.size() - 1;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, AMatchBufferedTwiceIsRefused) {
  // A poll would report it twice. Order alone is no fault: spanning
  // matches are buffered at feed time, ahead of earlier chunks' scanned
  // ones, so a reversed buffer still imports.
  SessionSnapshot s = exported_snapshot();
  std::reverse(s.matches.begin(), s.matches.end());
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.matches.push_back(s.matches.front());
  ++s.stats.matches_delivered;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, TruncatedMustAgreeWithDroppedMatches) {
  SessionSnapshot s = exported_snapshot();
  s.stats.truncated = true;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
  s.stats.matches_dropped = 2;
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.stats.truncated = false;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, MoreSpanningMatchesThanDeliveredOrDroppedAreRefused) {
  // Every spanning match is delivered or dropped at the quota. The sum is
  // compared without overflow: a near-2^64 count must not wrap past it.
  SessionSnapshot s = exported_snapshot();
  s.stats.spanning_matches = s.stats.matches_delivered;
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  ++s.stats.spanning_matches;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
  s.stats.matches_dropped = 1;
  s.stats.truncated = true;
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.stats.matches_dropped = ~std::uint64_t{0};
  s.stats.spanning_matches = ~std::uint64_t{0};
  ASSERT_TRUE(import_into_fresh(s).is_ok());
  s.stats.matches_dropped = ~std::uint64_t{0} - s.stats.matches_delivered - 1;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotImportFuzz, BytesFedInNoChunkAreRefused) {
  SessionSnapshot s = exported_snapshot();
  ASSERT_GT(s.stats.bytes_fed, 0u);
  s.stats.chunks_fed = 0;
  EXPECT_EQ(import_into_fresh(s).code(), StatusCode::kInvalidArgument);
  // A session that fed nothing may have fed no chunk, or only empty ones.
  s.matches.clear();
  s.stats.matches_delivered = 0;
  s.stats.bytes_fed = 0;
  EXPECT_TRUE(import_into_fresh(s).is_ok());
  s.stats.chunks_fed = 3;
  EXPECT_TRUE(import_into_fresh(s).is_ok());
}

TEST(SnapshotImportFuzz, MutatedSnapshotsRoundTripOrAreRefused) {
  const SessionSnapshot original = exported_snapshot();
  ASSERT_GE(original.matches.size(), 4u);
  ASSERT_NE(original.dfa_state, 0);
  StreamService b = make_service();
  const auto states = static_cast<std::int32_t>(b.dfa().state_count());
  const auto patterns = static_cast<std::int32_t>(b.dfa().pattern_count());
  Rng rng(2027);
  std::uint64_t adopted = 0, refused = 0;
  for (int round = 0; round < 400; ++round) {
    SessionSnapshot s = original;
    mutate(s, rng);
    SCOPED_TRACE("round " + std::to_string(round));
    const Status status = b.import_session(s);
    bool importable = s.dfa_state >= 0 && s.dfa_state < states;
    for (const ac::Match& m : s.matches)
      importable = importable && m.pattern >= 0 && m.pattern < patterns &&
                   m.end < s.stats.bytes_fed &&
                   m.end + 1 >= b.dfa().pattern_length(m.pattern);
    std::vector<ac::Match> sorted = s.matches;
    ac::normalize_matches(sorted);
    importable = importable &&
                 (s.limits.max_bytes == 0 || s.stats.bytes_fed <= s.limits.max_bytes) &&
                 (s.limits.max_matches == 0 ||
                  s.stats.matches_delivered <= s.limits.max_matches) &&
                 s.matches.size() <= s.stats.matches_delivered &&
                 s.stats.truncated == (s.stats.matches_dropped > 0) &&
                 std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
    EXPECT_EQ(status.is_ok(), importable) << status.to_string();
    if (!status.is_ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      ++refused;
      continue;
    }
    ++adopted;
    // Adopted: it re-exports exactly as imported, then keeps serving from
    // its carried state. The feed may hit the snapshot's byte quota, or the
    // end of the u64 stream offset; every match it reports lies inside the
    // bytes fed, even when the carried state is deeper than they are.
    Result<SessionSnapshot> again = b.export_session(s.id);
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_TRUE(same_snapshot(again.value(), s));
    ASSERT_TRUE(b.import_session(s).is_ok());
    const Status feed = b.feed(s.id, "rs his");
    EXPECT_TRUE(feed.is_ok() || feed.code() == StatusCode::kCapacityExceeded)
        << feed.to_string();
    const bool fed_ok = feed.is_ok();
    ASSERT_TRUE(b.drain().is_ok());
    Result<std::vector<ac::Match>> polled = b.poll(s.id);
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    const std::uint64_t fed = s.stats.bytes_fed + (fed_ok ? 6 : 0);
    for (const ac::Match& m : polled.value()) {
      EXPECT_GE(m.pattern, 0);
      EXPECT_LT(m.pattern, patterns);
      EXPECT_LT(m.end, fed);
      EXPECT_GE(m.end + 1, b.dfa().pattern_length(m.pattern));
    }
    ASSERT_TRUE(b.close(s.id).is_ok());
  }
  // The mutations reach both outcomes.
  EXPECT_GT(adopted, 20u);
  EXPECT_GT(refused, 20u);
}

}  // namespace
}  // namespace acgpu::serve
