#include "oracle/minimize.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace acgpu::oracle {
namespace {

/// Upper bound on shrink-to-fixpoint rounds (each round is a full pattern +
/// text + truncation sweep); the loop stops early when a round makes no
/// progress.
constexpr std::size_t kMaxRounds = 8;
/// Cap on candidate evaluations (each one recompiles the workload and
/// re-runs the matcher); minimization stops, keeping the best reproducer
/// found so far, when it is exhausted.
constexpr std::size_t kMaxEvaluations = 4000;

/// Evaluation budgeter + predicate: does the candidate still diverge?
class Shrinker {
 public:
  Shrinker(const Matcher& matcher, std::uint64_t salt)
      : matcher_(matcher), salt_(salt) {}

  /// Returns the divergence if the candidate reproduces one, nullopt
  /// otherwise (including when the candidate fails to compile or the
  /// matcher throws — a *different* failure is not the bug being shrunk).
  std::optional<Divergence> diverges(const Workload& candidate) {
    if (candidate.patterns.empty()) return std::nullopt;
    if (++evaluations_ > kMaxEvaluations) return std::nullopt;
    try {
      const CompiledWorkload compiled(candidate);
      const auto reference = reference_matches(compiled);
      const auto got = matcher_.run(compiled, salt_);
      return diff_matches(compiled, matcher_.name(), salt_, reference, got);
    } catch (const Error&) {
      return std::nullopt;
    }
  }

  bool budget_left() const { return evaluations_ <= kMaxEvaluations; }

 private:
  const Matcher& matcher_;
  std::uint64_t salt_;
  std::size_t evaluations_ = 0;
};

/// Greedy pattern-set reduction: drop one pattern at a time, keeping every
/// drop that still diverges; repeats until no single drop survives.
bool shrink_patterns(Workload& w, Shrinker& shrink) {
  bool progressed = false;
  bool changed = true;
  while (changed && w.patterns.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < w.patterns.size(); ++i) {
      Workload candidate = w;
      candidate.patterns.erase(candidate.patterns.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (shrink.diverges(candidate)) {
        w = std::move(candidate);
        progressed = changed = true;
        break;  // indices shifted; rescan
      }
    }
  }
  return progressed;
}

/// Trims the text from the back, then the front, using power-of-two step
/// sizes. Interior removals (shrink_text below) shift every later match
/// offset, which kills offset-dependent divergences — the chunk-boundary
/// bug class this harness targets. Power-of-two front trims keep every
/// match end's residue modulo any power-of-two chunk size intact, so those
/// divergences survive aggressive trimming.
bool shrink_text_ends(Workload& w, Shrinker& shrink) {
  bool progressed = false;
  for (bool from_back : {true, false}) {
    std::size_t step = 1;
    while (step * 2 <= w.text.size()) step *= 2;
    while (step >= 1 && !w.text.empty()) {
      if (step > w.text.size()) {
        step /= 2;
        continue;
      }
      Workload candidate = w;
      if (from_back)
        candidate.text.erase(candidate.text.size() - step, step);
      else
        candidate.text.erase(0, step);
      if (shrink.diverges(candidate)) {
        w = std::move(candidate);
        progressed = true;  // keep the same step while it works
      } else {
        step /= 2;
      }
      if (!shrink.budget_left()) return progressed;
    }
  }
  return progressed;
}

/// ddmin-style text reduction: remove ever-smaller chunks while the
/// divergence persists, down to single bytes.
bool shrink_text(Workload& w, Shrinker& shrink) {
  bool progressed = false;
  std::size_t granularity = 2;
  while (!w.text.empty() && granularity <= std::max<std::size_t>(2, w.text.size())) {
    const std::size_t chunk =
        std::max<std::size_t>(1, (w.text.size() + granularity - 1) / granularity);
    bool removed = false;
    for (std::size_t begin = 0; begin < w.text.size(); begin += chunk) {
      Workload candidate = w;
      candidate.text.erase(begin, chunk);
      if (shrink.diverges(candidate)) {
        w = std::move(candidate);
        progressed = removed = true;
        break;  // layout changed; restart this granularity
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      granularity *= 2;
    }
    if (!shrink.budget_left()) break;
  }
  return progressed;
}

/// Pattern truncation: trim bytes off either end of each pattern while the
/// divergence persists (shorter patterns make the reproducer easier to
/// reason about even when none can be dropped outright).
bool shrink_pattern_bytes(Workload& w, Shrinker& shrink) {
  bool progressed = false;
  for (std::size_t i = 0; i < w.patterns.size(); ++i) {
    for (bool from_back : {true, false}) {
      while (w.patterns[i].size() > 1) {
        Workload candidate = w;
        if (from_back)
          candidate.patterns[i].pop_back();
        else
          candidate.patterns[i].erase(0, 1);
        if (!shrink.diverges(candidate)) break;
        w = std::move(candidate);
        progressed = true;
      }
    }
  }
  return progressed;
}

void append_octal(std::string& out, std::string_view bytes) {
  for (const char c : bytes) {
    const auto b = static_cast<unsigned>(static_cast<unsigned char>(c));
    out += '\\';
    out += static_cast<char>('0' + ((b >> 6) & 7));
    out += static_cast<char>('0' + ((b >> 3) & 7));
    out += static_cast<char>('0' + (b & 7));
  }
}

/// Identifier-safe content hash so pasted tests get stable, unique names.
std::uint64_t fingerprint(const Reproducer& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  mix(r.matcher);
  for (const auto& p : r.workload.patterns) mix(p);
  mix(r.workload.text);
  return h;
}

}  // namespace

std::optional<Reproducer> minimize_divergence(const Workload& workload,
                                              const Matcher& matcher,
                                              std::uint64_t salt) {
  Shrinker shrink(matcher, salt);
  Workload best = workload;
  auto divergence = shrink.diverges(best);
  if (!divergence) return std::nullopt;

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    bool progressed = false;
    progressed |= shrink_patterns(best, shrink);
    progressed |= shrink_text_ends(best, shrink);
    progressed |= shrink_text(best, shrink);
    progressed |= shrink_pattern_bytes(best, shrink);
    if (!progressed || !shrink.budget_left()) break;
  }

  // Recompute the divergence on the final workload so the report matches it.
  Shrinker confirm(matcher, salt);
  divergence = confirm.diverges(best);
  ACGPU_CHECK(divergence.has_value(),
              "minimizer invariant violated: shrunk workload no longer diverges");
  best.name = "minimized:" + workload.name;
  return Reproducer{std::move(best), matcher.name(), salt, std::move(*divergence)};
}

std::string to_cpp_test(const Reproducer& r) {
  std::ostringstream os;
  os << "// Minimized by the conformance oracle (" << r.divergence.workload
     << "). Paste into tests/ and keep.\n";
  char name[64];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(fingerprint(r)));
  std::string matcher_id = r.matcher;
  std::replace(matcher_id.begin(), matcher_id.end(), '-', '_');
  os << "TEST(ConformanceRegression, " << matcher_id << "_" << name << ") {\n";
  os << "  const std::vector<std::string> patterns = {\n";
  for (const auto& p : r.workload.patterns) {
    std::string lit;
    append_octal(lit, p);
    os << "      std::string(\"" << lit << "\", " << p.size() << "),\n";
  }
  os << "  };\n";
  std::string text_lit;
  append_octal(text_lit, r.workload.text);
  os << "  const std::string text(\"" << text_lit << "\", " << r.workload.text.size()
     << ");\n";
  os << "  const acgpu::oracle::CompiledWorkload workload(\n"
     << "      acgpu::oracle::Workload{\"regression\", patterns, text});\n";
  os << "  const auto matcher = acgpu::oracle::make_matcher(\"" << r.matcher
     << "\");\n";
  os << "  EXPECT_EQ(matcher->run(workload, " << r.salt << "ULL),\n"
     << "            acgpu::oracle::reference_matches(workload));\n";
  os << "}\n";
  return os.str();
}

}  // namespace acgpu::oracle
