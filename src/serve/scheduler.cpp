#include "serve/scheduler.h"

#include <algorithm>
#include <mutex>

#include "ac/serial_matcher.h"
#include "dispatch/dispatcher.h"

namespace acgpu::serve {

Status SchedulerOptions::validate() const {
  if (max_queue_bytes == 0)
    return Status::invalid_argument("max_queue_bytes must be >= 1");
  if (max_queue_chunks == 0)
    return Status::invalid_argument("max_queue_chunks must be >= 1");
  if (coalesce_bytes == 0)
    return Status::invalid_argument("coalesce_bytes must be >= 1");
  return Status::ok();
}

Scheduler::Scheduler(const SchedulerOptions& options) : options_(options) {
  ACGPU_CHECK(options_.validate().is_ok(), options_.validate().to_string());
}

Status Scheduler::admission(std::uint64_t bytes) const {
  std::scoped_lock lock(mu_);
  return admission_locked(bytes);
}

Status Scheduler::admission_locked(std::uint64_t bytes) const {
  if (queue_.size() + 1 > options_.max_queue_chunks)
    return Status::overloaded("queue full: " + std::to_string(queue_.size()) +
                              " chunks pending (cap " +
                              std::to_string(options_.max_queue_chunks) + ")");
  if (queued_bytes_ + bytes > options_.max_queue_bytes) {
    // An oversized chunk (> the whole byte budget) is admissible only into
    // an empty queue; rejecting it forever would wedge its producer.
    if (!(queue_.empty() && bytes > options_.max_queue_bytes))
      return Status::overloaded(
          "queue full: " + std::to_string(queued_bytes_) + " bytes pending + " +
          std::to_string(bytes) + " over cap " +
          std::to_string(options_.max_queue_bytes));
  }
  return Status::ok();
}

Status Scheduler::admit(PendingChunk chunk) {
  if (chunk.bytes.empty()) return Status::ok();
  std::scoped_lock lock(mu_);
  if (Status s = admission_locked(chunk.bytes.size()); !s) return s;
  queued_bytes_ += chunk.bytes.size();
  queue_.push_back(std::move(chunk));
  return Status::ok();
}

CoalescedBatch Scheduler::take_batch() {
  std::scoped_lock lock(mu_);
  ACGPU_CHECK(!queue_.empty(), "take_batch on an empty queue");
  CoalescedBatch batch;
  while (!queue_.empty()) {
    const PendingChunk& head = queue_.front();
    if (!batch.spans.empty() &&
        batch.text.size() + head.bytes.size() > options_.coalesce_bytes)
      break;
    ChunkSpan span;
    span.session = head.session;
    span.begin = batch.text.size();
    span.end = span.begin + head.bytes.size();
    span.global_base = head.global_base;
    span.trace = head.trace;
    batch.text.append(head.bytes);
    batch.spans.push_back(span);
    queued_bytes_ -= head.bytes.size();
    queue_.pop_front();
  }
  return batch;
}

std::size_t Scheduler::queued_for(SessionId session) const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const PendingChunk& c : queue_)
    if (c.session == session) ++n;
  return n;
}

std::size_t Scheduler::forget(SessionId session) {
  std::scoped_lock lock(mu_);
  std::size_t dropped = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->session == session) {
      queued_bytes_ -= it->bytes.size();
      it = queue_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

namespace {

/// Partition filter: credit each match to the span holding its END byte,
/// keep it only when its START lies in the same span, and rebase the end
/// onto the session's global offsets.
void partition_matches(const std::vector<ac::Match>& found, const ac::Dfa& dfa,
                       const CoalescedBatch& batch, BatchScan& out) {
  const auto& spans = batch.spans;
  for (const ac::Match& m : found) {
    // First span with begin > m.end, then step back: the span holding end.
    const auto it = std::upper_bound(
        spans.begin(), spans.end(), m.end,
        [](std::uint64_t end, const ChunkSpan& s) { return end < s.begin; });
    ACGPU_CHECK(it != spans.begin(), "match end " << m.end << " before first span");
    const ChunkSpan& span = *(it - 1);
    ACGPU_CHECK(m.end < span.end, "match end " << m.end << " past span end " << span.end);
    const std::uint64_t start = m.end + 1 - dfa.pattern_length(m.pattern);
    if (start < span.begin) continue;  // crosses a joint: spurious or
                                       // already reported by the session's
                                       // boundary continuation
    out.matches.push_back(
        {span.session, ac::Match{span.global_base + (m.end - span.begin), m.pattern}});
  }
}

}  // namespace

BatchScan scan_batch(Engine& engine, const ac::Dfa& dfa,
                     const CoalescedBatch& batch) {
  BatchScan out;
  if (batch.text.empty()) return out;

  Result<ScanResult> scan = engine.scan(batch.text);
  if (scan.is_ok() && !scan.value().overflowed) {
    out.makespan_seconds = scan.value().stats.makespan_seconds;
    partition_matches(scan.value().matches, dfa, batch, out);
    return out;
  }
  // Device match buffer overflowed (dense workload) or the engine failed:
  // the host DFA is always exact, so serving degrades instead of dropping.
  out.host_fallback = true;
  partition_matches(ac::find_all(dfa, batch.text), dfa, batch, out);
  return out;
}

BatchScan scan_batch(Engine& engine, const ac::Dfa& dfa,
                     const CoalescedBatch& batch,
                     dispatch::Dispatcher* dispatcher) {
  if (dispatcher == nullptr) return scan_batch(engine, dfa, batch);
  BatchScan out;
  if (batch.text.empty()) return out;

  const dispatch::WorkloadSignature sig =
      dispatcher->signature(batch.text, /*session=*/true);
  const dispatch::Decision decision = dispatcher->choose(sig);
  if (decision.backend == dispatch::Backend::kGpuPipeline) {
    out = scan_batch(engine, dfa, batch);
  } else {
    const dispatch::HostScan host = dispatch::scan_on_host(
        dfa, batch.text, decision.backend, dispatcher->cost_model().config());
    out.makespan_seconds = host.modeled_seconds;
    partition_matches(host.matches, dfa, batch, out);
  }
  // The overflow fallback's host rescan is not a GPU timing — it would
  // poison the GPU curve's correction, so only clean executions feed back.
  if (!out.host_fallback)
    dispatcher->observe(decision, sig, out.makespan_seconds);
  return out;
}

}  // namespace acgpu::serve
