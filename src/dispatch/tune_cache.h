// acgpu::dispatch::TuneCache — content-hash-keyed on-disk autotune cache.
//
// The kernel-cache idiom (libgpuarray's gpuarray_cache_sql, hcBLAS's
// autogemm winners): tuning is expensive, dictionaries are stable, so the
// Autotuner's winners persist across processes in a small line-oriented
// text file and are loaded at DispatchEngine creation. Entries key on
//
//   (dictionary content hash, signature bucket key)
//
// where the hash is FNV-1a over a schema version tag, the chip model name,
// and every pattern's bytes — so editing ONE pattern, changing the schema,
// or switching the simulated chip invalidates every entry for that
// dictionary, while unrelated dictionaries coexist in one file.
//
// File format (docs/DISPATCH.md), one entry per line:
//
//   acgpu-tune v3
//   <hash-hex> <bucket> <tpb> <chunk> <pool> <streams> <split> <gbps>
//
// Unknown versions and malformed lines are skipped (treated as misses),
// never errors: the cache is an accelerator, not a dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "ac/pattern_set.h"
#include "util/error.h"

namespace acgpu::dispatch {

/// Winning pipeline knobs for one (dictionary, bucket); mirrors the
/// EngineOptions fields the Autotuner sweeps.
struct TunedParams {
  std::uint32_t threads_per_block = 256;
  std::uint64_t chunk_bytes = 0;  ///< 0 = engine auto-derive
  std::uint32_t pool_depth = 0;   ///< 0 = engine default (streams)
  std::uint32_t streams = 2;
  bool split_readback = true;
  /// Modeled throughput measured when this entry won, for reporting only.
  double gbps = 0.0;

  friend bool operator==(const TunedParams&, const TunedParams&) = default;
};

/// FNV-1a over schema version + `salt` (chip model name) + pattern bytes.
/// Any change to the dictionary contents changes the hash — the cache's
/// only invalidation rule.
std::uint64_t dictionary_hash(const ac::PatternSet& patterns,
                              std::string_view salt = {});

class TuneCache {
 public:
  /// Loads entries from `path`, merging over whatever is already cached.
  /// A missing file is OK (empty cache); malformed lines are skipped.
  Status load(const std::string& path);

  /// Atomically rewrites `path` with every cached entry (temp + rename).
  Status save(const std::string& path) const;

  std::optional<TunedParams> find(std::uint64_t dict_hash,
                                  const std::string& bucket) const;
  void insert(std::uint64_t dict_hash, const std::string& bucket,
              const TunedParams& params);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// $ACGPU_TUNE_CACHE if set, else ".acgpu_tune_cache" in the CWD.
  static std::string default_path();

 private:
  // Ordered so save() is deterministic (stable diffs, stable tests).
  std::map<std::pair<std::uint64_t, std::string>, TunedParams> entries_;
};

}  // namespace acgpu::dispatch
