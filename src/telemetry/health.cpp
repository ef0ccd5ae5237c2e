#include "telemetry/health.h"

#include <algorithm>

#include "telemetry/metrics_registry.h"
#include "util/error.h"

namespace acgpu::telemetry {

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "?";
}

SloPolicy SloPolicy::serving_defaults() {
  SloPolicy p;
  p.feed_p99_ns = {50e6, 250e6};   // 50 ms degraded, 250 ms unhealthy
  p.queue_depth = {64, 256};
  p.error_rate = {0.05, 0.25};
  return p;
}

Status SloPolicy::validate() const {
  if (window == 0 || min_samples > window)
    return Status::invalid_argument(
        "SloPolicy window " + std::to_string(window) + " must be >= 1 and >= min_samples " +
        std::to_string(min_samples) +
        ": latency, error and eviction rates are judged only once the window "
        "holds min_samples feeds");
  return Status::ok();
}

HealthMonitor::HealthMonitor(std::uint32_t shards, SloPolicy policy,
                             MetricsRegistry* metrics)
    : policy_(policy) {
  ACGPU_CHECK(shards >= 1, "HealthMonitor needs at least one shard");
  const Status valid = policy_.validate();
  ACGPU_CHECK(valid.is_ok(), valid.message());
  shards_.reserve(shards);
  for (std::uint32_t k = 0; k < shards; ++k) {
    auto s = std::make_unique<PerShard>();
    s->ring.reserve(policy_.window);
    if (metrics != nullptr) {
      const std::string prefix = "health." + std::to_string(k) + ".";
      s->g_state = &metrics->gauge(prefix + "state");
      s->g_p50 = &metrics->gauge(prefix + "feed_p50_ns");
      s->g_p99 = &metrics->gauge(prefix + "feed_p99_ns");
      s->g_queue = &metrics->gauge(prefix + "queue_depth");
      s->g_error = &metrics->gauge(prefix + "error_rate");
      s->g_eviction = &metrics->gauge(prefix + "eviction_rate");
      s->g_breaches = &metrics->gauge(prefix + "breaches");
    }
    shards_.push_back(std::move(s));
  }
}

void HealthMonitor::observe_feed(std::uint32_t shard, double latency_ns, bool ok) {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  PerShard& s = *shards_[shard];
  std::scoped_lock lock(s.mu);
  const FeedSample sample{latency_ns, ok};
  if (s.ring.size() < policy_.window) {
    s.ring.push_back(sample);
    if (!ok) ++s.errors_in_ring;
  } else {
    FeedSample& old = s.ring[s.next];
    if (!old.ok) --s.errors_in_ring;
    if (!ok) ++s.errors_in_ring;
    old = sample;
    s.next = (s.next + 1) % policy_.window;
  }
  ++s.total_feeds;
  // Tumbling eviction window: every W feeds, fold the eviction count into a
  // rate and restart the count.
  if (++s.feeds_in_tumble >= policy_.window) {
    s.last_eviction_rate =
        static_cast<double>(s.evictions_window) / policy_.window;
    s.evictions_window = 0;
    s.feeds_in_tumble = 0;
  }
}

void HealthMonitor::observe_queue_depth(std::uint32_t shard, double depth) {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  PerShard& s = *shards_[shard];
  std::scoped_lock lock(s.mu);
  s.queue_depth = depth;
}

void HealthMonitor::observe_eviction(std::uint32_t shard, std::uint64_t n) {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  PerShard& s = *shards_[shard];
  std::scoped_lock lock(s.mu);
  s.evictions_window += n;
}

namespace {

double percentile_of(std::vector<double>& sorted_scratch, double pct) {
  if (sorted_scratch.empty()) return 0;
  std::sort(sorted_scratch.begin(), sorted_scratch.end());
  const double rank = pct / 100.0 * static_cast<double>(sorted_scratch.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_scratch.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_scratch[lo] * (1.0 - frac) + sorted_scratch[hi] * frac;
}

/// Worst breach level of `value` against `target`; appends the dimension to
/// `breached` when it trips at all.
HealthState judge(double value, const SloTarget& target, const char* dimension,
                  std::string& breached, HealthState worst) {
  if (!target.enforced()) return worst;
  HealthState level = HealthState::kOk;
  if (value > target.unhealthy)
    level = HealthState::kUnhealthy;
  else if (value > target.degraded)
    level = HealthState::kDegraded;
  if (level == HealthState::kOk) return worst;
  if (!breached.empty()) breached += ",";
  breached += dimension;
  return level > worst ? level : worst;
}

}  // namespace

HealthState HealthMonitor::evaluate(std::uint32_t shard) {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  PerShard& s = *shards_[shard];

  HealthState from{}, to{};
  bool transitioned = false;
  {
    std::scoped_lock lock(s.mu);
    std::vector<double> lat;
    lat.reserve(s.ring.size());
    for (const FeedSample& f : s.ring) lat.push_back(f.latency_ns);
    const double p50 = percentile_of(lat, 50);
    const double p99 = percentile_of(lat, 99);
    const double error_rate =
        s.ring.empty() ? 0
                       : static_cast<double>(s.errors_in_ring) /
                             static_cast<double>(s.ring.size());
    const double eviction_rate = s.last_eviction_rate;
    const bool warm = s.ring.size() >= policy_.min_samples;

    std::string breached;
    HealthState next = HealthState::kOk;
    if (warm) {
      next = judge(p50, policy_.feed_p50_ns, "feed_p50_ns", breached, next);
      next = judge(p99, policy_.feed_p99_ns, "feed_p99_ns", breached, next);
      next = judge(error_rate, policy_.error_rate, "error_rate", breached, next);
      next = judge(eviction_rate, policy_.eviction_rate, "eviction_rate",
                   breached, next);
    }
    next = judge(s.queue_depth, policy_.queue_depth, "queue_depth", breached, next);

    from = s.state;
    to = next;
    transitioned = from != to;
    if (to > from) ++s.breaches;
    s.state = to;
    s.breached = std::move(breached);

    if (s.g_state != nullptr) {
      s.g_state->set(static_cast<double>(to));
      s.g_p50->set(p50);
      s.g_p99->set(p99);
      s.g_queue->set(s.queue_depth);
      s.g_error->set(error_rate);
      s.g_eviction->set(eviction_rate);
      s.g_breaches->set(static_cast<double>(s.breaches));
    }
  }
  if (transitioned) {
    TransitionListener listener;
    {
      std::scoped_lock lock(listener_mu_);
      listener = listener_;
    }
    if (listener) listener(shard, from, to);
  }
  return to;
}

HealthState HealthMonitor::state(std::uint32_t shard) const {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  const PerShard& s = *shards_[shard];
  std::scoped_lock lock(s.mu);
  return s.state;
}

ShardHealth HealthMonitor::snapshot_locked(const PerShard& s) const {
  ShardHealth out;
  out.state = s.state;
  std::vector<double> lat;
  lat.reserve(s.ring.size());
  for (const FeedSample& f : s.ring) lat.push_back(f.latency_ns);
  out.feed_p50_ns = percentile_of(lat, 50);
  out.feed_p99_ns = percentile_of(lat, 99);
  out.queue_depth = s.queue_depth;
  out.error_rate = s.ring.empty()
                       ? 0
                       : static_cast<double>(s.errors_in_ring) /
                             static_cast<double>(s.ring.size());
  out.eviction_rate = s.last_eviction_rate;
  out.window_samples = s.ring.size();
  out.breaches = s.breaches;
  out.breached = s.breached;
  return out;
}

ShardHealth HealthMonitor::shard_health(std::uint32_t shard) const {
  ACGPU_CHECK(shard < shards_.size(), "health shard " << shard << " out of range");
  const PerShard& s = *shards_[shard];
  std::scoped_lock lock(s.mu);
  return snapshot_locked(s);
}

void HealthMonitor::set_transition_listener(TransitionListener listener) {
  std::scoped_lock lock(listener_mu_);
  listener_ = std::move(listener);
}

}  // namespace acgpu::telemetry
