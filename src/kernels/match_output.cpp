#include "kernels/match_output.h"

#include "util/error.h"

namespace acgpu::kernels {

MatchBuffer::MatchBuffer(gpusim::DeviceMemory& mem, std::uint64_t threads,
                         std::uint32_t capacity, std::uint32_t scan_bound,
                         std::uint64_t record_ids)
    : threads_(threads), capacity_(capacity), scan_bound_(scan_bound),
      slots_(std::min(capacity, scan_bound)) {
  ACGPU_CHECK(threads > 0, "MatchBuffer: zero threads");
  ACGPU_CHECK(capacity > 0, "MatchBuffer: zero capacity");
  ACGPU_CHECK(capacity < kMaxCount,
              "MatchBuffer: capacity " << capacity << " must stay below the u16 count limit "
                                       << kMaxCount);
  ACGPU_CHECK(scan_bound > 0, "MatchBuffer: zero scan bound");
  ACGPU_CHECK(encodable(record_ids, scan_bound),
              "MatchBuffer: " << record_ids << " record ids x scan bound " << scan_bound
                              << " B do not fit a 32-bit match record");
  counts_addr_ = mem.alloc(threads_ * 2);
  records_addr_ = mem.alloc(threads_ * slots_ * 4);
  mem.fill(counts_addr_, 0, threads_ * 2);
}

MatchBuffer::RawCollected MatchBuffer::collect_records(
    const gpusim::DeviceMemory& mem) const {
  RawCollected out;
  for (std::uint64_t t = 0; t < threads_; ++t) {
    const std::uint32_t count = mem.load_u16(count_addr(t));
    out.total_reported += count;
    if (count > slots_) out.overflowed = true;
    const std::uint32_t stored = std::min(count, slots_);
    for (std::uint32_t s = 0; s < stored; ++s) {
      const std::uint32_t word = mem.load_u32(record_addr(t, s));
      out.records.push_back(
          Record{t, word % scan_bound_, static_cast<std::int32_t>(word / scan_bound_)});
    }
  }
  return out;
}

}  // namespace acgpu::kernels
