#include "dispatch/tune_cache.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace acgpu::dispatch {
namespace {

constexpr std::string_view kHeader = "acgpu-tune v3";
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  // Separator byte so {"ab","c"} and {"a","bc"} hash differently.
  h ^= 0xffu;
  h *= kFnvPrime;
}

}  // namespace

std::uint64_t dictionary_hash(const ac::PatternSet& patterns,
                              std::string_view salt) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, kHeader);
  fnv_mix(h, salt);
  for (std::string_view p : patterns) fnv_mix(h, p);
  return h;
}

Status TuneCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::ok();  // missing cache = empty cache
  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    return Status::ok();  // unknown version: all misses, never an error
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string hash_hex, bucket;
    TunedParams p;
    unsigned split = 1;
    if (!(row >> hash_hex >> bucket >> p.threads_per_block >> p.chunk_bytes >>
          p.pool_depth >> p.streams >> split >> p.gbps))
      continue;  // malformed line: skip
    p.split_readback = split != 0;
    char* end = nullptr;
    const std::uint64_t hash = std::strtoull(hash_hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') continue;
    entries_[{hash, bucket}] = p;
  }
  return Status::ok();
}

Status TuneCache::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      return Status::invalid_argument("tune cache: cannot write " + tmp);
    out << kHeader << "\n";
    char hex[24];
    for (const auto& [key, p] : entries_) {
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(key.first));
      out << hex << ' ' << key.second << ' ' << p.threads_per_block << ' '
          << p.chunk_bytes << ' ' << p.pool_depth << ' ' << p.streams << ' '
          << (p.split_readback ? 1 : 0) << ' ' << p.gbps << "\n";
    }
    if (!out)
      return Status::internal("tune cache: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::internal("tune cache: rename to " + path + " failed");
  return Status::ok();
}

std::optional<TunedParams> TuneCache::find(std::uint64_t dict_hash,
                                           const std::string& bucket) const {
  auto it = entries_.find({dict_hash, bucket});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuneCache::insert(std::uint64_t dict_hash, const std::string& bucket,
                       const TunedParams& params) {
  entries_[{dict_hash, bucket}] = params;
}

std::string TuneCache::default_path() {
  if (const char* env = std::getenv("ACGPU_TUNE_CACHE"); env && *env)
    return env;
  return ".acgpu_tune_cache";
}

}  // namespace acgpu::dispatch
