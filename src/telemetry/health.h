// HealthMonitor — per-shard rolling-window SLOs that close the loop into
// routing.
//
// The metrics registry answers "what happened since the process started";
// an SLO needs "how is shard k doing *right now*". The monitor keeps, per
// shard, a sliding window of the last W feed outcomes (latency + success),
// the queue depth last observed, and a per-window eviction count, and
// evaluates them against declarative targets:
//
//   dimension          window semantics        SloPolicy field
//   feed p50 / p99     sliding (last W feeds)  feed_p50_ns / feed_p99_ns
//   error rate         sliding (last W feeds)  error_rate
//   queue depth        instantaneous gauge     queue_depth
//   eviction rate      tumbling (per W feeds)  eviction_rate
//
// Each SloTarget carries two thresholds; crossing `degraded` trips
// HealthState::kDegraded, crossing `unhealthy` trips kUnhealthy, and the
// worst breached dimension wins. Latency/error/eviction dimensions stay
// quiet until the shard has `min_samples` feeds in its window (cold shards
// are not "unhealthy", they are unknown — treated as ok); queue depth is a
// gauge and judges immediately.
//
// Breaches publish health.<shard>.* series into the registry (state,
// percentiles, rates, breach count) and fire the transition listener, which
// is how cluster::Router learns to deprioritize a degraded shard and treat
// an unhealthy one as failed-soft — observability driving behavior, the
// tentpole's third leg.
//
// Thread-safety: every method is safe from any thread (per-shard mutex; the
// listener is invoked outside it).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.h"

namespace acgpu::telemetry {

class MetricsRegistry;
class Gauge;

enum class HealthState : std::uint8_t { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

const char* to_string(HealthState state);

/// One SLO dimension's breach thresholds. Infinity (the default) = the
/// threshold is not enforced.
struct SloTarget {
  double degraded = std::numeric_limits<double>::infinity();
  double unhealthy = std::numeric_limits<double>::infinity();

  bool enforced() const {
    return degraded != std::numeric_limits<double>::infinity() ||
           unhealthy != std::numeric_limits<double>::infinity();
  }
};

/// Declarative SLO targets (docs/OBSERVABILITY.md carries the table).
struct SloPolicy {
  SloTarget feed_p50_ns;
  SloTarget feed_p99_ns;
  SloTarget queue_depth;     ///< queued chunks at last observation
  SloTarget error_rate;      ///< failed feeds / feeds in window, [0,1]
  SloTarget eviction_rate;   ///< evictions / feeds per tumbling window, [0,1]

  /// Sliding-window size in feeds (latency percentiles + error rate).
  std::uint32_t window = 256;
  /// Latency/rate dimensions abstain below this many windowed samples, so
  /// it must not exceed `window`.
  std::uint32_t min_samples = 16;

  /// Any target set => the monitor is worth standing up.
  bool enabled() const {
    return feed_p50_ns.enforced() || feed_p99_ns.enforced() ||
           queue_depth.enforced() || error_rate.enforced() ||
           eviction_rate.enforced();
  }

  /// Targets sized for the simulated serving demos: p99 feed under 50 ms /
  /// 250 ms, queue under 64 / 256 chunks, error rate under 5% / 25%.
  static SloPolicy serving_defaults();

  /// kInvalidArgument for a zero window, or a min_samples the window can
  /// never hold (those dimensions would never be judged).
  Status validate() const;
};

/// Point-in-time view of one shard's window (health.<k>.* mirrors it).
struct ShardHealth {
  HealthState state = HealthState::kOk;
  double feed_p50_ns = 0;
  double feed_p99_ns = 0;
  double queue_depth = 0;
  double error_rate = 0;
  double eviction_rate = 0;
  std::uint64_t window_samples = 0;  ///< feeds currently in the window
  std::uint64_t breaches = 0;        ///< transitions into a worse state
  std::string breached;  ///< comma-joined breached dimensions ("" when ok)
};

class HealthMonitor {
 public:
  /// `metrics` null = no series published (states still evaluate).
  HealthMonitor(std::uint32_t shards, SloPolicy policy,
                MetricsRegistry* metrics = nullptr);

  /// One feed outcome on `shard`: wall-clock latency + success. Cheap
  /// (per-shard mutex + ring store); call on every feed.
  void observe_feed(std::uint32_t shard, double latency_ns, bool ok);
  void observe_queue_depth(std::uint32_t shard, double depth);
  void observe_eviction(std::uint32_t shard, std::uint64_t n = 1);

  /// Re-judges `shard` against the policy, publishes health.<shard>.*, and
  /// fires the transition listener on a state change. Returns the state.
  /// O(window log window) — call every feed, or batch via an interval.
  HealthState evaluate(std::uint32_t shard);

  /// Last evaluated state (no re-evaluation).
  HealthState state(std::uint32_t shard) const;
  ShardHealth shard_health(std::uint32_t shard) const;

  /// Called (outside the shard lock) whenever evaluate() changes a state.
  using TransitionListener =
      std::function<void(std::uint32_t shard, HealthState from, HealthState to)>;
  void set_transition_listener(TransitionListener listener);

  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }
  const SloPolicy& policy() const { return policy_; }

 private:
  struct FeedSample {
    double latency_ns = 0;
    bool ok = true;
  };
  struct PerShard {
    mutable std::mutex mu;
    std::vector<FeedSample> ring;  ///< capacity = policy.window
    std::size_t next = 0;          ///< ring cursor
    std::uint64_t total_feeds = 0;
    std::uint64_t errors_in_ring = 0;
    double queue_depth = 0;
    std::uint64_t evictions_window = 0;   ///< current tumbling window
    std::uint32_t feeds_in_tumble = 0;
    double last_eviction_rate = 0;        ///< last completed tumbling window
    HealthState state = HealthState::kOk;
    std::uint64_t breaches = 0;
    std::string breached;

    // health.<k>.* handles (null when no registry).
    Gauge* g_state = nullptr;
    Gauge* g_p50 = nullptr;
    Gauge* g_p99 = nullptr;
    Gauge* g_queue = nullptr;
    Gauge* g_error = nullptr;
    Gauge* g_eviction = nullptr;
    Gauge* g_breaches = nullptr;
  };

  ShardHealth snapshot_locked(const PerShard& s) const;

  SloPolicy policy_;
  std::vector<std::unique_ptr<PerShard>> shards_;
  std::mutex listener_mu_;
  TransitionListener listener_;
};

}  // namespace acgpu::telemetry
