#include "harness/experiment.h"

#include <sstream>

#include "ac/serial_matcher.h"
#include "cpumodel/serial_timing.h"
#include "kernels/ac_kernel.h"
#include "util/byte_units.h"
#include "util/stopwatch.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::harness {

SweepConfig SweepConfig::paper() {
  SweepConfig c;
  c.sizes = {50 * kKiB, 1 * kMiB, 8 * kMiB, 64 * kMiB, 200 * kMiB};
  c.pattern_counts = {100, 1000, 5000, 10000, 20000};
  return c;
}

SweepConfig SweepConfig::quick() {
  SweepConfig c;
  c.sizes = {50 * kKiB, 512 * kKiB, 2 * kMiB};
  c.pattern_counts = {100, 1000, 4000};
  c.cpu_sample_bytes = 256 * kKiB;
  c.device_bytes = 256 * kMiB;
  c.sample_waves = 2;
  return c;
}

std::string SweepConfig::cache_key() const {
  // FNV-1a over a textual dump of every result-affecting field, plus a
  // schema version bumped whenever PointResult's layout or the timing model
  // changes meaningfully.
  std::ostringstream os;
  os << "schema=10;";
  for (auto s : sizes) os << s << ',';
  os << ';';
  for (auto p : pattern_counts) os << p << ',';
  os << ';' << min_pattern_len << ';' << max_pattern_len << ';' << seed << ';'
     << chunk_bytes << ';' << threads_per_block << ';' << global_max_chunk_bytes
     << ';' << global_target_threads << ';'
     << global_threads_per_block << ';' << pattern_pool_bytes << ';'
     << match_capacity << ';'
     << sample_waves << ';' << global_sample_waves << ';' << device_bytes << ';'
     << cpu_sample_bytes << ';'
     << gpu.num_sms << ';' << gpu.clock_ghz << ';' << gpu.global_latency_cycles
     << ';' << gpu.cycles_per_segment << ';' << gpu.tex_cache_bytes << ';'
     << gpu.tex_l2_bytes << ';' << gpu.tex_l2_latency_cycles << ';'
     << gpu.tex_hit_cycles << ';' << gpu.tex_miss_latency_cycles << ';'
     << gpu.shared_service_cycles << ';' << gpu.cycles_per_warp_instr;
  const std::string dump = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : dump) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::ostringstream hex;
  hex << std::hex << h;
  return hex.str();
}

namespace {

ApproachStats to_stats(const kernels::AcLaunchOutcome& outcome) {
  ApproachStats s;
  s.seconds = outcome.sim.seconds;
  s.sim_makespan_cycles = outcome.sim.sim_makespan_cycles;
  s.simulated_blocks = outcome.sim.simulated_blocks;
  const gpusim::Metrics& m = outcome.sim.metrics;
  s.tex_hit_rate = m.tex_hit_rate();
  s.tex_l2_misses = m.tex_l2_misses;
  s.txn_per_request = m.avg_transactions_per_request();
  s.issue_cycles = m.issue_cycles;
  s.stall_global = m.stall_global_cycles;
  s.stall_tex = m.stall_tex_cycles;
  s.stall_shared = m.stall_shared_cycles;
  s.stall_barrier = m.stall_barrier_cycles;
  s.shared_conflict_cycles = m.shared_conflict_cycles;
  s.warp_instructions = m.warp_instructions;
  return s;
}

}  // namespace

std::vector<PointResult> run_sweep(const SweepConfig& config, std::ostream* progress) {
  ACGPU_CHECK(!config.sizes.empty() && !config.pattern_counts.empty(),
              "run_sweep: empty grid");
  std::uint64_t max_size = 0;
  for (auto s : config.sizes) max_size = std::max(max_size, s);

  auto log = [&](const std::string& line) {
    if (progress) *progress << line << '\n' << std::flush;
  };

  // The corpus plays the paper's 50 GB magazine pool: the scanned input is
  // the prefix, the dictionary is cut from a disjoint tail region (patterns
  // still occur in the input — natural language repeats itself — but the
  // automaton is not walking its own source text).
  log("generating " + format_bytes(max_size + config.pattern_pool_bytes) +
      " corpus...");
  const std::string corpus = workload::make_corpus(
      static_cast<std::size_t>(max_size + config.pattern_pool_bytes), config.seed);
  const std::string_view pattern_pool(corpus.data() + max_size,
                                      static_cast<std::size_t>(config.pattern_pool_bytes));

  gpusim::DeviceMemory mem(static_cast<std::size_t>(config.device_bytes));
  const std::size_t empty = mem.mark();

  std::vector<PointResult> results;
  for (const std::uint32_t pattern_count : config.pattern_counts) {
    workload::ExtractConfig ec;
    ec.count = pattern_count;
    ec.min_length = config.min_pattern_len;
    ec.max_length = config.max_pattern_len;
    ec.seed = derive_seed(config.seed, pattern_count);
    ec.word_aligned = true;  // dictionaries are words/phrases, not mid-word cuts
    const ac::PatternSet patterns = workload::extract_patterns(pattern_pool, ec);

    log("building DFA for " + std::to_string(pattern_count) + " patterns...");
    // Pitch padded to 8 int32 elements = one 32 B texture line per row start.
    const ac::Dfa dfa = ac::build_dfa(patterns, /*pad_pitch_to=*/8);

    mem.release(empty);
    const kernels::DeviceDfa ddfa(mem, dfa);
    const gpusim::DevAddr text_addr =
        kernels::upload_class_text(mem, ddfa, std::string_view(corpus.data(), max_size));
    const std::size_t after_dfa = mem.mark();

    for (const std::uint64_t size : config.sizes) {
      const std::string_view text(corpus.data(), static_cast<std::size_t>(size));

      PointResult r;
      r.text_bytes = size;
      r.pattern_count = pattern_count;
      r.dfa_states = dfa.state_count();
      r.stt_mbytes = static_cast<double>(ddfa.stt_bytes()) / 1e6;

      // Serial baseline: real scan for the match count + host wall time...
      Stopwatch host;
      r.match_count = ac::count_matches(dfa, text);
      r.host_serial_seconds = host.seconds();
      // ...and the Core2 model for the figures.
      const std::string_view sample =
          text.substr(0, static_cast<std::size_t>(
                             std::min<std::uint64_t>(size, config.cpu_sample_bytes)));
      const cpumodel::SerialEstimate est = cpumodel::estimate_serial(dfa, sample, size);
      r.serial_seconds = est.seconds;
      r.serial_cycles_per_byte = est.cycles_per_byte;
      r.serial_l1_miss = est.l1_miss_rate;
      r.serial_l2_miss = est.l2_miss_rate;

      auto run = [&](kernels::Approach approach, kernels::StoreScheme scheme) {
        kernels::AcLaunchSpec spec;
        spec.approach = approach;
        spec.scheme = scheme;
        const bool global = approach == kernels::Approach::kGlobalOnly;
        if (global) {
          std::uint64_t chunk = size / config.global_target_threads / 4 * 4;
          chunk = std::clamp<std::uint64_t>(chunk, 128, config.global_max_chunk_bytes);
          spec.chunk_bytes = static_cast<std::uint32_t>(chunk);
          spec.threads_per_block = config.global_threads_per_block;
        } else {
          spec.chunk_bytes = config.chunk_bytes;
          spec.threads_per_block = config.threads_per_block;
        }
        spec.match_capacity = config.match_capacity;
        spec.sim.mode = gpusim::SimMode::Timed;
        spec.sim.sample_waves =
            global ? config.global_sample_waves : config.sample_waves;
        const std::size_t mark = mem.mark();
        const kernels::AcLaunchOutcome out =
            kernels::run_ac_kernel(config.gpu, mem, ddfa, text_addr, size, spec);
        mem.release(mark);
        return to_stats(out);
      };

      r.global = run(kernels::Approach::kGlobalOnly, kernels::StoreScheme::kDiagonal);
      r.shared = run(kernels::Approach::kShared, kernels::StoreScheme::kDiagonal);
      r.shared_naive =
          run(kernels::Approach::kShared, kernels::StoreScheme::kCoalescedNaive);

      std::ostringstream line;
      line << "  " << format_bytes(size) << " x " << pattern_count
           << " patterns: serial " << format_seconds(r.serial_seconds) << ", global "
           << format_seconds(r.global.seconds) << ", shared "
           << format_seconds(r.shared.seconds) << " ("
           << format_gbps(r.shared_gbps()) << " Gbps)";
      log(line.str());

      results.push_back(r);
    }
    mem.release(after_dfa);
  }
  return results;
}

}  // namespace acgpu::harness
