#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"  // json_escape
#include "util/stopwatch.h"

namespace acgpu::telemetry {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmission: return "admission";
    case FlightEventKind::kReject: return "reject";
    case FlightEventKind::kEviction: return "eviction";
    case FlightEventKind::kBatchIssue: return "batch_issue";
    case FlightEventKind::kBatchRetire: return "batch_retire";
    case FlightEventKind::kShardFailure: return "shard_failure";
    case FlightEventKind::kShardRestore: return "shard_restore";
    case FlightEventKind::kHealthTransition: return "health_transition";
    case FlightEventKind::kMark: return "mark";
  }
  return "?";
}

namespace {

std::uint32_t round_up_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

/// Per-recorder serial keys the thread-local ring cache (the Tracer idiom:
/// survives a recorder dying and another reusing its address).
std::uint64_t next_recorder_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::uint64_t pack_meta(FlightEventKind kind, std::uint32_t shard,
                                  std::uint32_t code) {
  return static_cast<std::uint64_t>(kind) |
         (static_cast<std::uint64_t>(shard & 0xFFFFFFu) << 8) |
         (static_cast<std::uint64_t>(code) << 32);
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options), serial_(next_recorder_serial()) {
  options_.ring_capacity = round_up_pow2(std::max(2u, options_.ring_capacity));
  options_.max_threads = std::max(1u, options_.max_threads);
  mask_ = options_.ring_capacity - 1;
  rings_.reserve(options_.max_threads);
}

FlightRecorder::Ring* FlightRecorder::thread_ring() {
  // Slot index per (thread, recorder); nullptr caches "over max_threads" so
  // dropping threads never retake the registration mutex.
  thread_local std::map<std::uint64_t, Ring*> cache;
  const auto it = cache.find(serial_);
  if (it != cache.end()) return it->second;

  std::scoped_lock lock(mu_);
  Ring* ring = nullptr;
  if (rings_.size() < options_.max_threads) {
    auto owned = std::make_unique<Ring>();
    owned->slots = std::make_unique<Slot[]>(options_.ring_capacity);
    ring = owned.get();
    rings_.push_back(std::move(owned));
  }
  cache.emplace(serial_, ring);
  return ring;
}

void FlightRecorder::record(FlightEventKind kind, std::uint32_t shard,
                            std::uint64_t a, std::uint64_t b, std::uint32_t code) {
  Ring* ring = thread_ring();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[head & mask_];
  slot.t_ns.store(now_ns(), std::memory_order_relaxed);
  slot.meta.store(pack_meta(kind, shard, code), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  // Publish: readers only trust slots below head, so the payload stores
  // above must be visible first.
  ring->head.store(head + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::recorded() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_)
    total += ring->head.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t FlightRecorder::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::events(std::uint64_t window_ns) const {
  const std::uint64_t now = now_ns();
  const std::uint64_t cutoff =
      window_ns == 0 || window_ns > now ? 0 : now - window_ns;

  std::vector<FlightEvent> out;
  std::scoped_lock lock(mu_);  // stops ring registration, not recording
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = *rings_[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t count =
        std::min<std::uint64_t>(head, options_.ring_capacity);
    for (std::uint64_t i = head - count; i < head; ++i) {
      const Slot& slot = ring.slots[i & mask_];
      FlightEvent ev;
      ev.t_ns = slot.t_ns.load(std::memory_order_relaxed);
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      ev.a = slot.a.load(std::memory_order_relaxed);
      ev.b = slot.b.load(std::memory_order_relaxed);
      // Re-check: if the writer lapped this slot while we copied it, the
      // words may be torn — discard rather than report fiction.
      if (ring.head.load(std::memory_order_acquire) - i > options_.ring_capacity)
        continue;
      ev.kind = static_cast<FlightEventKind>(meta & 0xFF);
      ev.shard = static_cast<std::uint32_t>((meta >> 8) & 0xFFFFFFu);
      ev.code = static_cast<std::uint32_t>(meta >> 32);
      ev.thread = static_cast<std::uint32_t>(r);
      if (ev.t_ns >= cutoff) out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });
  return out;
}

void FlightRecorder::write_postmortem(std::ostream& out, std::string_view reason,
                                      const MetricsSnapshot* metrics,
                                      std::uint64_t window_ns) const {
  const std::vector<FlightEvent> evs = events(window_ns);
  out << "{\"postmortem\":{";
  out << "\"reason\":\"" << json_escape(reason) << "\"";
  out << ",\"dumped_t_ns\":" << now_ns();
  out << ",\"window_ns\":" << window_ns;
  out << ",\"recorded\":" << recorded();
  out << ",\"dropped\":" << dropped();
  out << ",\"events\":[";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const FlightEvent& e = evs[i];
    if (i > 0) out << ",";
    out << "\n{\"t_ns\":" << e.t_ns << ",\"kind\":\"" << to_string(e.kind)
        << "\",\"shard\":" << e.shard << ",\"code\":" << e.code
        << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"thread\":" << e.thread
        << "}";
  }
  out << "\n]}";
  if (metrics != nullptr) {
    // MetricsSnapshot::write_json emits {"metrics":{...}}; splice its body
    // so the postmortem is one well-formed object.
    out << ",";
    std::ostringstream tmp;
    metrics->write_json(tmp);
    std::string body = tmp.str();
    const std::size_t open = body.find('{');
    const std::size_t close = body.rfind('}');
    out << body.substr(open + 1, close - open - 1);
  }
  out << "}\n";
}

}  // namespace acgpu::telemetry
