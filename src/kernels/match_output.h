// Device-side match output buffer, one layout for the AC kernel (over either
// STT) and the PFAC kernel: a 2-byte count per thread plus one 4-byte word
// per record, written with plain global stores and decoded on the host.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ac/dfa.h"
#include "ac/match.h"
#include "gpusim/device_memory.h"

namespace acgpu::kernels {

/// Layout, for `threads` threads that each scan at most S bytes (S, the scan
/// bound: chunk + overlap for the chunked AC kernels, the longest pattern for
/// PFAC):
///  - counts: one u16 per thread at counts + thread * 2. The kernel clamps its
///    count to kMaxCount before the store, and capacities stay below it, so a
///    count above the capacity still means the thread dropped records.
///  - records: one u32 per record, id * S + offset, where offset (< S) is the
///    scanned byte's index in the thread's scan. The id is the accepting
///    state for the AC kernel over either table, which has it in hand from
///    the transition word, and the output id for the PFAC kernel, which
///    reads it.
///    Slot-major: slot k of thread t lives at records + (k * threads + t) * 4,
///    so the k-th records of a warp's lanes share one 128 B segment.
///  - min(capacity, S) slots per thread: a thread emits at most one record
///    per scanned byte. A thread whose matches exceed its slots keeps
///    counting but drops the excess records; the host sees the overflow.
class MatchBuffer {
 public:
  /// Largest count a u16 count word holds; the kernels' count stores
  /// saturate here.
  static constexpr std::uint32_t kMaxCount = 0xffff;

  /// `capacity` in [1, kMaxCount), `scan_bound` (S) >= 1, and the writing
  /// kernel's `record_ids` (its id range, 0 included) encodable at S.
  MatchBuffer(gpusim::DeviceMemory& mem, std::uint64_t threads,
              std::uint32_t capacity, std::uint32_t scan_bound,
              std::uint64_t record_ids);

  /// Whether every record word id * S + offset with an id below
  /// `record_ids` fits in 32 bits.
  static bool encodable(std::uint64_t record_ids, std::uint32_t scan_bound) {
    return record_ids * scan_bound <= (std::uint64_t{1} << 32);
  }

  std::uint64_t threads() const { return threads_; }
  std::uint32_t capacity() const { return capacity_; }
  /// Record slots per thread: min(capacity, scan_bound).
  std::uint32_t slots() const { return slots_; }

  gpusim::DevAddr count_addr(std::uint64_t thread) const {
    return counts_addr_ + thread * 2;
  }
  gpusim::DevAddr record_addr(std::uint64_t thread, std::uint32_t slot) const {
    return records_addr_ + (slot * threads_ + thread) * 4;
  }
  gpusim::DevAddr counts_base() const { return counts_addr_; }
  gpusim::DevAddr records_base() const { return records_addr_; }

  /// One decoded device record with its reporting thread, which fixes where
  /// the thread's scan began and which matches it owns.
  struct Record {
    std::uint64_t thread = 0;
    std::uint32_t offset = 0;  ///< index of the match's last byte in the scan
    std::int32_t id = 0;       ///< accepting state (AC) or output id (PFAC)
  };
  struct RawCollected {
    std::vector<Record> records;  ///< in (thread, slot) order
    /// Records the kernel emitted: the sum of the counts, stored or not.
    std::uint64_t total_reported = 0;
    bool overflowed = false;
  };
  /// Reads counts and records back (cudaMemcpyDeviceToHost equivalent).
  RawCollected collect_records(const gpusim::DeviceMemory& mem) const;

  /// Expanded matches of one launch (expand_records).
  struct Collected {
    std::vector<ac::Match> matches;  ///< sorted by (end, pattern)
    /// Records emitted (RawCollected::total_reported). The AC kernel emits
    /// none past its overlap exit, so it counts fewer than the matches
    /// every scanned byte ends, unowned ones included.
    std::uint64_t total_reported = 0;
    std::uint64_t stored_records = 0;  ///< sum over threads of min(count, slots)
    bool overflowed = false;
  };

 private:
  std::uint64_t threads_;
  std::uint32_t capacity_;
  std::uint32_t scan_bound_;
  std::uint32_t slots_;
  gpusim::DevAddr counts_addr_;
  gpusim::DevAddr records_addr_;
};

/// Record ids of the AC kernel: accepting states, expanded through the DFA's
/// per-state output sets. Pass it to expand_records in place of an
/// automaton whose records carry output ids.
struct StateOutputs {
  const ac::Dfa& dfa;
  const std::int32_t* id_output_begin(std::int32_t state) const {
    return dfa.output_begin(state);
  }
  const std::int32_t* id_output_end(std::int32_t state) const {
    return dfa.output_end(state);
  }
  std::uint32_t pattern_length(std::int32_t id) const { return dfa.pattern_length(id); }
};

/// The host half of every kernel's match output. Decodes each stored record to
/// its end position, thread * stride + offset; expands its id through
/// `automaton`'s id_output_begin/end (StateOutputs for the AC kernel's state
/// records, ac::PfacAutomaton for PFAC's output ids); and keeps the
/// matches that start inside the reporting thread's own `stride` bytes (the
/// ac/chunking.h ownership rule). A fresh-state scan cannot match before its
/// first byte, so only the upper bound is tested. PFAC passes stride 1: each
/// of its threads reports only patterns starting at its own byte, so the rule
/// keeps every record there.
template <typename Automaton>
MatchBuffer::Collected expand_records(const MatchBuffer& buffer,
                                      const gpusim::DeviceMemory& mem,
                                      const Automaton& automaton,
                                      std::uint64_t stride, std::uint64_t text_len) {
  const MatchBuffer::RawCollected raw = buffer.collect_records(mem);
  MatchBuffer::Collected out;
  out.total_reported = raw.total_reported;
  out.stored_records = raw.records.size();
  out.overflowed = raw.overflowed;
  for (const MatchBuffer::Record& rec : raw.records) {
    const std::uint64_t begin = rec.thread * stride;
    const std::uint64_t end = begin + rec.offset;
    const std::uint64_t owned_end = std::min(text_len, begin + stride);
    for (const std::int32_t* pid = automaton.id_output_begin(rec.id);
         pid != automaton.id_output_end(rec.id); ++pid)
      if (end + 1 - automaton.pattern_length(*pid) < owned_end)
        out.matches.push_back(ac::Match{end, *pid});
  }
  std::sort(out.matches.begin(), out.matches.end());
  return out;
}

}  // namespace acgpu::kernels
