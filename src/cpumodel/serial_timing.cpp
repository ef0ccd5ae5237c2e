#include "cpumodel/serial_timing.h"

#include <algorithm>
#include <bit>
#include <system_error>
#include <thread>

#include "util/error.h"
#include "util/set_assoc_cache.h"

namespace acgpu::cpumodel {

CpuConfig CpuConfig::core2() { return CpuConfig{}; }

namespace {

/// Walked bytes that earn one more worker.
constexpr std::size_t kBytesPerWorker = 256u << 10;

/// How the walk's accesses split into shares: address bits
/// [shift, shift + bits) name an access's share. Those bits index the sets
/// of both caches, so every L1 set, and every L2 set, sees the accesses of
/// one share only.
struct Split {
  unsigned shift = 0;
  unsigned bits = 0;

  std::uint64_t count() const { return std::uint64_t{1} << bits; }
  std::uint64_t share_of(std::uint64_t addr) const {
    return (addr >> shift) & (count() - 1);
  }
  /// `addr` with the share bits squeezed out: its address in the share's
  /// own caches, which hold 1/count() of the sets. One-to-one within a share.
  std::uint64_t squeeze(std::uint64_t addr) const {
    const std::uint64_t low = addr & ((std::uint64_t{1} << shift) - 1);
    return ((addr >> (shift + bits)) << shift) | low;
  }
};

/// The address bits [lo, hi) that pick a set of one cache.
struct IndexBits {
  unsigned lo = 0;
  unsigned hi = 0;
};

IndexBits index_bits(std::uint64_t bytes, std::uint32_t line_bytes, std::uint32_t assoc) {
  const std::uint64_t sets = util::SetAssocCache::set_count(bytes, line_bytes, assoc);
  const auto lo = static_cast<unsigned>(std::countr_zero(line_bytes));
  return {lo, lo + static_cast<unsigned>(std::countr_zero(sets))};
}

Split plan_split(const CpuConfig& config, std::size_t walked) {
  const IndexBits l1 = index_bits(config.l1_bytes, config.l1_line_bytes, config.l1_assoc);
  const IndexBits l2 = index_bits(config.l2_bytes, config.l2_line_bytes, config.l2_assoc);
  Split split;
  split.shift = std::max(l1.lo, l2.lo);
  const unsigned hi = std::min(l1.hi, l2.hi);
  const unsigned common = hi > split.shift ? hi - split.shift : 0;
  const std::uint64_t workers =
      std::min<std::uint64_t>(std::max(1u, std::thread::hardware_concurrency()),
                              std::max<std::size_t>(1, walked / kBytesPerWorker));
  split.bits = std::min(common, static_cast<unsigned>(std::bit_width(workers)) - 1);
  return split;
}

/// One share's integer counts at one prefix.
struct Tally {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
};

util::SetAssocCache share_cache(std::uint64_t bytes, std::uint32_t line_bytes,
                                std::uint32_t assoc, const Split& split) {
  const std::uint64_t sets = util::SetAssocCache::set_count(bytes, line_bytes, assoc);
  return util::SetAssocCache(
      static_cast<std::uint64_t>(line_bytes) * assoc * (sets >> split.bits), line_bytes,
      assoc);
}

/// One share's caches, holding only its sets, and its tally at each prefix.
/// Aligned so that two workers' counters never share a cache line.
struct alignas(64) Share {
  Share(const CpuConfig& config, const Split& split, std::size_t prefixes)
      : l1(share_cache(config.l1_bytes, config.l1_line_bytes, config.l1_assoc, split)),
        l2(share_cache(config.l2_bytes, config.l2_line_bytes, config.l2_assoc, split)),
        tallies(prefixes) {}

  util::SetAssocCache l1;
  util::SetAssocCache l2;
  std::vector<Tally> tallies;
};

/// Walks the DFA over the first prefixes.back() bytes of `sample`, runs the
/// accesses of share `s` through its caches, and tallies each prefix.
void walk_share(const ac::Dfa& dfa, std::string_view sample,
                std::span<const std::size_t> prefixes, const Split& split, std::uint64_t s,
                Share& share) noexcept {
  // Address layout for the model: the paper's byte-wide STT (Dfa::byte_pitch
  // words a row: the match column, then one column per byte) occupies
  // [0, states x pitch) and the input text follows it, exactly as a real
  // process would lay them out.
  const std::uint64_t pitch_bytes = static_cast<std::uint64_t>(dfa.byte_pitch()) * 4;
  const std::uint64_t text_base = static_cast<std::uint64_t>(dfa.state_count()) * pitch_bytes;

  auto touch = [&](std::uint64_t addr) {
    if (split.share_of(addr) != s) return;
    const std::uint64_t a = split.squeeze(addr);
    if (!share.l1.access(a)) share.l2.access(a);
  };

  std::int32_t state = 0;
  std::size_t i = 0;
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    for (; i < prefixes[k]; ++i) {
      const auto byte = static_cast<std::uint8_t>(sample[i]);
      touch(text_base + i);  // sequential input read
      const std::uint64_t row = static_cast<std::uint64_t>(state) * pitch_bytes;
      touch(row + (1 + byte) * 4);  // next-state entry
      state = dfa.next(state, byte);
      touch(static_cast<std::uint64_t>(state) * pitch_bytes);  // match column
    }
    share.tallies[k] = {share.l1.hits(), share.l1.misses(), share.l2.hits(),
                        share.l2.misses()};
  }
}

double rate(std::uint64_t misses, std::uint64_t hits) {
  const std::uint64_t n = hits + misses;
  return n == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(n);
}

double seconds_for(std::uint64_t bytes, double cycles_per_byte, const CpuConfig& config) {
  return static_cast<double>(bytes) * cycles_per_byte / (config.clock_ghz * 1e9);
}

SerialEstimate estimate_from(const Tally& t, std::uint64_t sampled,
                             const CpuConfig& config) {
  // Every L1 miss pays the L2 hit time; an L2 miss pays memory on top.
  const std::uint64_t extra_cycles =
      t.l1_misses * config.l2_hit_cycles + t.l2_misses * config.mem_cycles;
  SerialEstimate est;
  est.sampled_bytes = sampled;
  est.cycles_per_byte = config.base_cycles_per_byte + static_cast<double>(extra_cycles) /
                                                          static_cast<double>(sampled);
  est.seconds = seconds_for(sampled, est.cycles_per_byte, config);
  est.l1_miss_rate = rate(t.l1_misses, t.l1_hits);
  est.l2_miss_rate = rate(t.l2_misses, t.l2_hits);
  return est;
}

}  // namespace

std::vector<SerialEstimate> estimate_serial_prefixes(const ac::Dfa& dfa,
                                                     std::string_view sample,
                                                     std::span<const std::size_t> prefixes,
                                                     const CpuConfig& config) {
  ACGPU_CHECK(!prefixes.empty() && prefixes.front() > 0,
              "estimate_serial_prefixes: no prefix of at least one byte");
  for (std::size_t k = 1; k < prefixes.size(); ++k)
    ACGPU_CHECK(prefixes[k] > prefixes[k - 1],
                "estimate_serial_prefixes: prefix " << prefixes[k] << " follows "
                                                    << prefixes[k - 1]);
  ACGPU_CHECK(prefixes.back() <= sample.size(),
              "estimate_serial_prefixes: prefix " << prefixes.back() << " is longer than the "
                                                  << sample.size() << "-byte sample");

  const Split split = plan_split(config, prefixes.back());
  // Every share's caches and tallies exist before a worker starts, so the
  // workers neither allocate nor throw.
  std::vector<Share> shares;
  shares.reserve(split.count());
  for (std::uint64_t s = 0; s < split.count(); ++s)
    shares.emplace_back(config, split, prefixes.size());
  auto walk = [&](std::uint64_t s) { walk_share(dfa, sample, prefixes, split, s, shares[s]); };
  {
    std::vector<std::jthread> workers;
    workers.reserve(split.count() - 1);
    for (std::uint64_t s = 1; s < split.count(); ++s) {
      try {
        workers.emplace_back(walk, s);
      } catch (const std::system_error&) {
        walk(s);  // no thread to spare: the caller walks this share too
      }
    }
    walk(0);
  }  // joins the workers

  std::vector<SerialEstimate> out;
  out.reserve(prefixes.size());
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    Tally sum;
    for (const Share& share : shares) {
      sum.l1_hits += share.tallies[k].l1_hits;
      sum.l1_misses += share.tallies[k].l1_misses;
      sum.l2_hits += share.tallies[k].l2_hits;
      sum.l2_misses += share.tallies[k].l2_misses;
    }
    out.push_back(estimate_from(sum, prefixes[k], config));
  }
  return out;
}

SerialEstimate estimate_serial(const ac::Dfa& dfa, std::string_view sample,
                               std::uint64_t full_text_len, const CpuConfig& config) {
  ACGPU_CHECK(!sample.empty(), "estimate_serial: empty sample");
  ACGPU_CHECK(full_text_len >= sample.size(),
              "estimate_serial: full length " << full_text_len
                  << " smaller than the sample (" << sample.size() << ")");
  const std::size_t whole = sample.size();
  SerialEstimate est =
      estimate_serial_prefixes(dfa, sample, std::span<const std::size_t>(&whole, 1), config)
          .front();
  est.seconds = seconds_for(full_text_len, est.cycles_per_byte, config);
  return est;
}

}  // namespace acgpu::cpumodel
