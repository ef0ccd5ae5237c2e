#include "serve/session_manager.h"

#include <mutex>

namespace acgpu::serve {

SessionManager::SessionManager(std::uint32_t capacity, std::uint64_t id_namespace)
    : capacity_(capacity), next_id_(id_namespace + 1) {
  ACGPU_CHECK(capacity_ >= 1, "SessionManager capacity must be >= 1, got " << capacity);
}

Session& SessionManager::insert_locked(SessionId id, Session session,
                                       std::optional<SessionId>* evicted) {
  if (evicted != nullptr) evicted->reset();
  if (sessions_.size() >= capacity_) {
    const SessionId victim = lru_.back();
    lru_.pop_back();
    sessions_.erase(victim);
    ++evicted_;
    if (evicted != nullptr) *evicted = victim;
  }
  ++opened_;
  lru_.push_front(id);
  auto [it, inserted] = sessions_.try_emplace(
      id, Entry{std::move(session), lru_.begin()});
  ACGPU_CHECK(inserted, "session id " << id << " already live");
  return it->second.session;
}

Session& SessionManager::open(const ac::Dfa& dfa, const SessionLimits& limits,
                              std::optional<SessionId>* evicted) {
  std::scoped_lock lock(mu_);
  const SessionId id = next_id_++;
  return insert_locked(id, Session(id, dfa, limits), evicted);
}

Session& SessionManager::adopt(const SessionSnapshot& snapshot, const ac::Dfa& dfa,
                               std::optional<SessionId>* evicted) {
  std::scoped_lock lock(mu_);
  return insert_locked(snapshot.id, Session(snapshot, dfa), evicted);
}

Session* SessionManager::touch(SessionId id) {
  std::scoped_lock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
  return &it->second.session;
}

Session* SessionManager::find(SessionId id) {
  std::scoped_lock lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.session;
}

bool SessionManager::close(SessionId id) {
  std::scoped_lock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  lru_.erase(it->second.lru_pos);
  sessions_.erase(it);
  return true;
}

std::vector<SessionId> SessionManager::ids_by_recency() const {
  return {lru_.begin(), lru_.end()};
}

}  // namespace acgpu::serve
