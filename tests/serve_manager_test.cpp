// SessionManager: deterministic ids, LRU recency bookkeeping, eviction at
// capacity, and close semantics.
#include "serve/session_manager.h"

#include <gtest/gtest.h>

#include "ac/pattern_set.h"

namespace acgpu::serve {
namespace {

class ServeManager : public ::testing::Test {
 protected:
  ServeManager()
      : patterns_({"he", "she"}), dfa_(ac::build_dfa(patterns_, 8)) {}

  SessionId open(SessionManager& m, std::optional<SessionId>* evicted = nullptr) {
    return m.open(dfa_, SessionLimits{}, evicted).id();
  }

  ac::PatternSet patterns_;
  ac::Dfa dfa_;
};

TEST_F(ServeManager, IdsAreDeterministicAndNeverReused) {
  SessionManager m(2);
  EXPECT_EQ(open(m), 1u);
  EXPECT_EQ(open(m), 2u);
  m.close(1);
  m.close(2);
  EXPECT_EQ(open(m), 3u);  // no id reuse even after the set empties
  EXPECT_EQ(m.opened(), 3u);
}

TEST_F(ServeManager, RecencyOrderTracksOpenAndTouch) {
  SessionManager m(8);
  open(m);  // 1
  open(m);  // 2
  open(m);  // 3
  EXPECT_EQ(m.ids_by_recency(), (std::vector<SessionId>{3, 2, 1}));
  ASSERT_NE(m.touch(1), nullptr);
  EXPECT_EQ(m.ids_by_recency(), (std::vector<SessionId>{1, 3, 2}));
  // find() peeks without promoting.
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(m.ids_by_recency(), (std::vector<SessionId>{1, 3, 2}));
}

TEST_F(ServeManager, EvictsLeastRecentlyUsedAtCapacity) {
  SessionManager m(2);
  open(m);  // 1
  open(m);  // 2
  ASSERT_NE(m.touch(1), nullptr);  // now 2 is LRU
  std::optional<SessionId> evicted;
  EXPECT_EQ(open(m, &evicted), 3u);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_EQ(m.touch(2), nullptr);  // the evicted session is gone
  EXPECT_NE(m.touch(1), nullptr);
  EXPECT_EQ(m.live(), 2u);
  EXPECT_EQ(m.evicted(), 1u);
}

TEST_F(ServeManager, NoEvictionBelowCapacityReportsNullopt) {
  SessionManager m(2);
  std::optional<SessionId> evicted = 42;  // stale value must be cleared
  open(m, &evicted);
  EXPECT_FALSE(evicted.has_value());
}

TEST_F(ServeManager, CloseRemovesFromRecencyList) {
  SessionManager m(3);
  open(m);
  open(m);
  open(m);
  EXPECT_TRUE(m.close(2));
  EXPECT_FALSE(m.close(2));  // already gone
  EXPECT_EQ(m.ids_by_recency(), (std::vector<SessionId>{3, 1}));
  // The freed slot means the next open evicts nothing.
  std::optional<SessionId> evicted;
  open(m, &evicted);
  EXPECT_FALSE(evicted.has_value());
}

TEST_F(ServeManager, CapacityOneEvictsEveryPredecessor) {
  SessionManager m(1);
  open(m);
  std::optional<SessionId> evicted;
  for (SessionId expect_victim = 1; expect_victim <= 5; ++expect_victim) {
    const SessionId id = open(m, &evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, expect_victim);
    EXPECT_EQ(id, expect_victim + 1);
    EXPECT_EQ(m.live(), 1u);
  }
  EXPECT_EQ(m.evicted(), 5u);
}

TEST_F(ServeManager, SessionStatePersistsAcrossTouches) {
  SessionManager m(4);
  const SessionId id = open(m);
  m.touch(id)->begin_chunk("sh");
  m.touch(id)->begin_chunk("e");  // "she" AND its suffix "he" span sh|e
  EXPECT_EQ(m.find(id)->stats().spanning_matches, 2u);
  EXPECT_EQ(m.find(id)->bytes_fed(), 3u);
}

}  // namespace
}  // namespace acgpu::serve
