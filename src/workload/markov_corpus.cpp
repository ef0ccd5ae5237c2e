#include "workload/markov_corpus.h"

#include <algorithm>
#include <array>

#include "util/error.h"
#include "workload/seed_text.h"

namespace acgpu::workload {

namespace {

/// Raw successor counts per context, converted into the cumulative form.
using Counts = std::array<std::uint32_t, 256>;

}  // namespace

MarkovModel::MarkovModel(std::string_view training) {
  ACGPU_CHECK(training.size() >= 3, "MarkovModel: training text too short");
  start_[0] = static_cast<std::uint8_t>(training[0]);
  start_[1] = static_cast<std::uint8_t>(training[1]);
  // Counts only for the contexts the text holds: one per possible context
  // would zero 64 MB to fill a few hundred.
  std::vector<std::int32_t> slot(65536, -1);
  std::vector<Counts> raw;
  Counts uni{};
  for (std::size_t i = 0; i + 2 < training.size(); ++i) {
    const auto a = static_cast<std::uint8_t>(training[i]);
    const auto b = static_cast<std::uint8_t>(training[i + 1]);
    const auto c = static_cast<std::uint8_t>(training[i + 2]);
    std::int32_t& k = slot[key(a, b)];
    if (k < 0) {
      k = static_cast<std::int32_t>(raw.size());
      raw.emplace_back();
    }
    ++raw[static_cast<std::size_t>(k)][c];
  }
  for (char ch : training) ++uni[static_cast<std::uint8_t>(ch)];

  auto build = [](const Counts& counts, Context& out) {
    std::uint32_t running = 0;
    for (std::uint32_t sym = 0; sym < 256; ++sym) {
      if (counts[sym] == 0) continue;
      running += counts[sym];
      out.cumulative.push_back(running);
      out.symbols.push_back(static_cast<std::uint8_t>(sym));
    }
    out.total = running;
  };

  table_.resize(65536);
  for (std::size_t k = 0; k < slot.size(); ++k) {
    if (slot[k] < 0) continue;  // never seen: total 0, the unigram fallback
    build(raw[static_cast<std::size_t>(slot[k])], table_[k]);
    ++contexts_observed_;
  }
  build(uni, unigram_);
  ACGPU_CHECK(unigram_.total > 0, "MarkovModel: empty unigram distribution");
}

std::uint8_t MarkovModel::sample(const Context& ctx, Rng& rng) const {
  const Context& c = ctx.total > 0 ? ctx : unigram_;
  const auto r = static_cast<std::uint32_t>(rng.next_below(c.total)) + 1;
  const auto it = std::lower_bound(c.cumulative.begin(), c.cumulative.end(), r);
  return c.symbols[static_cast<std::size_t>(it - c.cumulative.begin())];
}

std::string MarkovModel::generate(std::size_t bytes, std::uint64_t seed) const {
  ACGPU_CHECK(bytes > 0, "MarkovModel::generate: zero bytes requested");
  Rng rng(seed);
  std::string out;
  out.reserve(bytes);
  std::uint8_t a = start_[0], b = start_[1];
  out.push_back(static_cast<char>(a));
  if (bytes > 1) out.push_back(static_cast<char>(b));
  while (out.size() < bytes) {
    const std::uint8_t c = sample(table_[key(a, b)], rng);
    out.push_back(static_cast<char>(c));
    a = b;
    b = c;
  }
  out.resize(bytes);
  return out;
}

std::string make_corpus(std::size_t bytes, std::uint64_t seed) {
  static const MarkovModel model{seed_text()};
  return model.generate(bytes, seed);
}

}  // namespace acgpu::workload
