// Bounded ownership of live sessions with LRU eviction.
//
// The ROADMAP's north star is millions of concurrent streams; the host
// cannot hold per-stream state for all of them forever, so the manager caps
// live sessions at a fixed capacity and evicts the least-recently-touched
// one to admit a new open(). Eviction is forgetful by design — the evicted
// stream's carried state and undelivered matches are dropped
// (an IDS that loses a flow's state re-anchors on the next flow) — and the
// service reports it through serve.sessions.evicted so operators can size
// the capacity to their traffic.
//
// Ids are deterministic: 1, 2, 3, ... in open() order, never reused, so a
// replayed workload names the same sessions every time.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "gpusim/host_observer.h"
#include "serve/session.h"

namespace acgpu::serve {

class SessionManager {
 public:
  /// At most `capacity` live sessions (>= 1). `id_namespace` offsets every
  /// generated id (namespace+1, namespace+2, ...): 0 keeps the classic
  /// 1,2,3 sequence, and the cluster tier gives each shard a disjoint
  /// high-bits namespace so ids are globally unique across devices
  /// (deterministically — shard k's n-th open always gets the same id).
  explicit SessionManager(std::uint32_t capacity,
                          std::uint64_t id_namespace = 0);

  /// Opens a new session (most-recently-used position). At capacity, the
  /// LRU session is destroyed first and its id reported via `evicted`.
  Session& open(const ac::Dfa& dfa, const SessionLimits& limits,
                std::optional<SessionId>* evicted = nullptr);

  /// Inserts a migrated session restored from `snapshot`, preserving its
  /// id (which another manager generated — that is the point). Fails the
  /// process on an id collision with a live session; at capacity the LRU
  /// session is evicted exactly as in open().
  Session& adopt(const SessionSnapshot& snapshot, const ac::Dfa& dfa,
                 std::optional<SessionId>* evicted = nullptr);

  /// Looks a session up and marks it most recently used. Returns nullptr
  /// for ids that were never opened, were closed, or were evicted.
  Session* touch(SessionId id);

  /// Peek without disturbing recency (stats, dispatch of bulk matches).
  Session* find(SessionId id);

  /// Destroys a session; false when the id is not live.
  bool close(SessionId id);

  std::size_t live() const { return sessions_.size(); }
  std::uint32_t capacity() const { return capacity_; }
  std::uint64_t opened() const { return opened_; }
  std::uint64_t evicted() const { return evicted_; }

  /// Live ids, most recently used first (tests, introspection).
  std::vector<SessionId> ids_by_recency() const;

  /// Hands the internal table mutex to the hostcheck auditor
  /// (gpusim/host_observer.h). Like the scheduler's, this is a LEAF mutex —
  /// the manager never calls out while holding it — so the recorded
  /// serve.mu -> serve.manager.mu edges keep the lock-order graph acyclic.
  /// Call before the manager is shared.
  void attach_observer(gpusim::HostObserver* observer) { mu_.attach(observer); }

 private:
  struct Entry {
    Session session;
    std::list<SessionId>::iterator lru_pos;
  };

  Session& insert_locked(SessionId id, Session session,
                         std::optional<SessionId>* evicted);

  /// Leaf mutex over the session table mutators; see attach_observer.
  mutable gpusim::TrackedMutex mu_{"serve.manager.mu"};
  std::uint32_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t opened_ = 0;
  std::uint64_t evicted_ = 0;
  std::list<SessionId> lru_;  ///< front = most recently used
  std::unordered_map<SessionId, Entry> sessions_;
};

}  // namespace acgpu::serve
