// The built-in adapters: one per matcher variant in the repo. Each wraps
// compile + match + normalization behind the uniform Matcher interface so
// the differential runner can treat a CPU scan and a simulated kernel
// launch identically.
#include <algorithm>
#include <optional>
#include <sstream>

#include "ac/chunking.h"
#include "ac/naive_matcher.h"
#include "ac/nfa_matcher.h"
#include "ac/parallel_matcher.h"
#include "ac/serial_matcher.h"
#include "ac/stream_matcher.h"
#include "gpusim/device_memory.h"
#include "kernels/ac_kernel.h"
#include "kernels/pfac_kernel.h"
#include "oracle/matcher.h"
#include "pipeline/pipeline.h"
#include "cluster/router.h"
#include "dispatch/dispatcher.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/rng.h"

namespace acgpu::oracle {
namespace {

// ---------------------------------------------------------------------------
// CPU adapters
// ---------------------------------------------------------------------------

class NaiveMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "naive";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    auto out = ac::find_all_naive(w.patterns(), w.text());
    ac::normalize_matches(out);
    return out;
  }
};

class NfaMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "nfa";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    auto out = ac::find_all_nfa(w.automaton(), w.text());
    ac::normalize_matches(out);
    return out;
  }
};

class SerialMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "serial";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    auto out = ac::find_all(w.dfa(), w.text());
    ac::normalize_matches(out);
    return out;
  }
};

/// CPU reference decomposition (fresh state per chunk + ownership rule),
/// with the chunk size drawn from the salt so successive iterations probe
/// different boundary positions.
class ChunkedMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "chunked";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    if (w.text().empty()) return {};
    Rng rng(derive_seed(salt, /*stream=*/1));
    // Bias toward small chunks (boundaries everywhere) but occasionally use
    // a chunk larger than the whole text (single-chunk degenerate case).
    const std::uint64_t cap =
        rng.next_bool(0.25) ? w.text().size() + 16 : std::min<std::uint64_t>(w.text().size(), 64);
    const std::uint64_t chunk = rng.next_in(1, std::max<std::uint64_t>(1, cap));
    auto out = ac::find_all_chunked(w.dfa(), w.text(), chunk);
    ac::normalize_matches(out);
    return out;
  }
};

class ParallelMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "parallel";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    static constexpr unsigned kThreadChoices[] = {1, 2, 3, 7, 16, 64};
    Rng rng(derive_seed(salt, /*stream=*/2));
    const unsigned threads = kThreadChoices[rng.next_below(std::size(kThreadChoices))];
    auto out = ac::find_all_parallel(w.dfa(), w.text(), threads);
    ac::normalize_matches(out);
    return out;
  }
};

/// Feeds the text in salt-derived random slices (including empty feeds and
/// 1-byte feeds) — every slice boundary is a potential straddle bug.
class StreamAdapter final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "stream";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    ac::StreamMatcher stream(w.dfa());
    ac::CollectSink sink;
    const std::string_view text = w.text();
    Rng rng(derive_seed(salt, /*stream=*/3));
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t len = 0;
      switch (rng.next_below(4)) {
        case 0: len = 0; break;                          // empty feed
        case 1: len = 1; break;                          // byte-at-a-time
        case 2: len = 1 + rng.next_below(16); break;     // small slices
        default: len = 1 + rng.next_below(256); break;   // packet-sized
      }
      len = std::min(len, text.size() - pos);
      stream.feed(text.substr(pos, len), sink);
      pos += len;
    }
    auto out = std::move(sink.matches());
    ac::normalize_matches(out);
    return out;
  }
};

class CompressedMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "compressed";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    ac::CollectSink sink;
    ac::match_compressed(w.compressed(), w.dfa(), w.text(), sink);
    auto out = std::move(sink.matches());
    ac::normalize_matches(out);
    return out;
  }
};

class PfacMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "pfac";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    auto out = ac::find_all_pfac(w.pfac(), w.text());
    ac::normalize_matches(out);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Simulated-GPU adapters
// ---------------------------------------------------------------------------

/// Smallest legal chunk for a dictionary: a multiple of 4 strictly larger
/// than the overlap (the kernels reject anything else), with a floor so
/// typical workloads still exercise many chunk boundaries.
std::uint32_t pick_chunk_bytes(const CompiledWorkload& w, std::uint32_t floor_bytes) {
  const std::uint32_t overlap = ac::required_overlap(w.dfa().max_pattern_length());
  const std::uint32_t chunk = std::max(floor_bytes, overlap + 1);
  return (chunk + 3) / 4 * 4;
}

/// Chunk option for the pipeline-backed adapters: half the draws pin the
/// smallest legal chunk of at least 32 B, the other half pass 0 so the
/// pipeline derives chunk and block per batch (down to 32-thread blocks on
/// tiny batches).
std::uint32_t draw_pipeline_chunk(const CompiledWorkload& w, Rng& rng) {
  return rng.next_bool(0.5) ? 0 : pick_chunk_bytes(w, 32);
}

/// Simulated device sized for this run: tables + text + match buffer, plus
/// slack for the 256-byte allocation alignment. Fresh per run so repeated
/// conformance iterations never leak device allocations into each other.
gpusim::DeviceMemory make_device(const CompiledWorkload& w, std::uint64_t threads,
                                std::uint32_t capacity, std::size_t table_bytes) {
  const std::size_t buffer = threads * (2 + 4ull * capacity);  // MatchBuffer at most
  return gpusim::DeviceMemory((4u << 20) + w.text().size() + 2 * table_bytes +
                              2 * buffer);
}

gpusim::GpuConfig sim_config() {
  gpusim::GpuConfig cfg = gpusim::GpuConfig::gtx285();
  cfg.num_sms = 4;  // functional-mode runs simulate every block; keep it quick
  return cfg;
}

/// Runs `launch(capacity)` with doubling match capacity until the device
/// buffer stops overflowing (dense workloads like an all-'a' text overflow
/// the default). `Launch` returns a MatchBuffer::Collected.
template <typename Launch>
std::vector<ac::Match> collect_with_retry(const char* who, Launch&& launch) {
  for (std::uint32_t capacity = 64; capacity <= (1u << 14); capacity *= 4) {
    auto collected = launch(capacity);
    if (!collected.overflowed) {
      ac::normalize_matches(collected.matches);
      return std::move(collected.matches);
    }
  }
  ACGPU_CHECK(false, who << ": match buffer overflow at capacity " << (1u << 14));
  return {};
}

/// The AC kernel over the dense class table, or with `compressed` over the
/// compressed one (gpu-compressed): the same loop and spec either way.
class GpuAcMatcher final : public Matcher {
 public:
  GpuAcMatcher(std::string name, kernels::Approach approach,
               kernels::StoreScheme scheme, bool compressed = false)
      : name_(std::move(name)), approach_(approach), scheme_(scheme),
        compressed_(compressed) {}

  const std::string& name() const override { return name_; }

  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    if (w.text().empty()) return {};
    const gpusim::GpuConfig cfg = sim_config();
    kernels::AcLaunchSpec spec;
    spec.approach = approach_;
    spec.scheme = scheme_;
    spec.chunk_bytes = pick_chunk_bytes(w, 32);
    spec.threads_per_block = 64;
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::uint64_t threads =
        (w.text().size() + spec.chunk_bytes - 1) / spec.chunk_bytes +
        spec.threads_per_block;
    const std::size_t table_bytes = compressed_
                                        ? w.compressed().size_bytes() + (1u << 20)
                                        : kernels::DeviceDfa::upload_bytes(w.dfa());
    return collect_with_retry(name_.c_str(), [&](std::uint32_t capacity) {
      spec.match_capacity = capacity;
      gpusim::DeviceMemory mem = make_device(w, threads, capacity, table_bytes);
      const auto launch = [&](const auto& table) {
        const auto addr = kernels::upload_class_text(mem, table, w.text());
        return kernels::run_ac_kernel(cfg, mem, table, addr, w.text().size(), spec)
            .matches;
      };
      if (compressed_)
        return launch(kernels::DeviceCompressedDfa(mem, w.compressed(), w.dfa()));
      return launch(kernels::DeviceDfa(mem, w.dfa()));
    });
  }

 private:
  std::string name_;
  kernels::Approach approach_;
  kernels::StoreScheme scheme_;
  bool compressed_;
};

class GpuPfacMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "gpu-pfac";
    return n;
  }
  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t) const override {
    if (w.text().empty()) return {};
    const gpusim::GpuConfig cfg = sim_config();
    kernels::PfacLaunchSpec spec;
    spec.threads_per_block = 64;
    spec.sim.mode = gpusim::SimMode::Functional;
    const std::uint64_t threads = w.text().size() + spec.threads_per_block;
    return collect_with_retry("gpu-pfac", [&](std::uint32_t capacity) {
      spec.match_capacity = capacity;
      gpusim::DeviceMemory mem =
          make_device(w, threads, capacity, w.pfac().stt().size_bytes());
      const kernels::DevicePfac dpfac(mem, w.pfac());
      const auto addr = kernels::upload_text(mem, w.text());
      return kernels::run_pfac_kernel(cfg, mem, dpfac, addr, w.text().size(), spec)
          .matches;
    });
  }
};

/// The batched multi-stream pipeline (src/pipeline/) in Functional mode.
/// The salt draws the stream count and a batch size biased toward tiny
/// batches, so successive iterations probe the stitch logic at every
/// batch-boundary offset.
/// Overrides try_run: the pipeline reports Status instead of throwing, so
/// its own error codes reach the differential report intact.
class PipelineMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "pipeline";
    return n;
  }

  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    return try_run(w, salt).value();  // throws acgpu::Error on a failed Status
  }

  Result<std::vector<ac::Match>> try_run(const CompiledWorkload& w,
                                         std::uint64_t salt) const override {
    if (w.text().empty()) return std::vector<ac::Match>{};
    Rng rng(derive_seed(salt, /*stream=*/7));
    pipeline::PipelineOptions opt;
    opt.streams = 1 + static_cast<std::uint32_t>(rng.next_below(6));
    // Bias toward tiny batches (stitch boundaries everywhere) but
    // occasionally cover the whole text in a single batch.
    const std::uint64_t cap = rng.next_bool(0.25)
                                  ? w.text().size() + 16
                                  : std::min<std::uint64_t>(w.text().size(), 64);
    opt.batch_bytes = rng.next_in(1, std::max<std::uint64_t>(1, cap));
    opt.chunk_bytes = draw_pipeline_chunk(w, rng);
    opt.threads_per_block = 64;
    opt.mode = gpusim::SimMode::Functional;

    const gpusim::GpuConfig cfg = sim_config();
    auto finish = [](pipeline::PipelineResult&& result) {
      ac::normalize_matches(result.matches);
      return std::move(result.matches);
    };
    for (std::uint32_t capacity = 64; capacity <= (1u << 14); capacity *= 4) {
      opt.match_capacity = capacity;
      gpusim::DeviceMemory mem(64u << 20);
      const kernels::DeviceDfa ddfa(mem, w.dfa());
      pipeline::MatchPipeline pipe(cfg, mem, ddfa, opt);
      auto r = pipe.run(w.text());
      if (!r.is_ok()) return r.status();
      if (!r.value().overflowed) return finish(std::move(r.value()));
    }
    return Status::capacity_exceeded(
        "pipeline: match buffer overflow at capacity 16384");
  }
};

/// The streaming session service (src/serve/) end to end: the text is fed
/// in salt-derived random slices (empty feeds, 1-byte feeds, packet-sized
/// feeds) so every slice boundary probes the session's boundary
/// continuation, while the stream count, batch size, and queue/coalesce
/// knobs are drawn from the salt too. A salt-chosen decoy
/// session feeds interleaved traffic through the same service so the
/// superbatch partitioner is exercised across sessions. Like the pipeline
/// adapter, overrides try_run to forward the service's own Status codes.
class ServeMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "serve";
    return n;
  }

  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    return try_run(w, salt).value();  // throws acgpu::Error on a failed Status
  }

  Result<std::vector<ac::Match>> try_run(const CompiledWorkload& w,
                                         std::uint64_t salt) const override {
    Rng rng(derive_seed(salt, /*stream=*/11));
    serve::ServeOptions opt;
    opt.engine.streams = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t cap = rng.next_bool(0.25)
                                  ? w.text().size() + 16
                                  : std::min<std::uint64_t>(w.text().size(), 64);
    opt.engine.batch_bytes = rng.next_in(1, std::max<std::uint64_t>(1, cap));
    opt.engine.chunk_bytes = draw_pipeline_chunk(w, rng);
    opt.engine.threads_per_block = 64;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu = sim_config();
    opt.device.memory_bytes = 64u << 20;
    // Tiny bounds so admission control and coalescing both fire; kAutoFlush
    // keeps the adapter total (it scans inline instead of rejecting).
    opt.queue.max_queue_chunks = 2 + static_cast<std::uint32_t>(rng.next_below(15));
    opt.queue.coalesce_bytes = 1 + rng.next_below(4096);
    opt.admission = serve::AdmissionPolicy::kAutoFlush;

    auto service = serve::StreamService::create(w.patterns(), opt);
    if (!service.is_ok()) return service.status();
    serve::StreamService& srv = service.value();

    Result<serve::SessionId> id = srv.open();
    if (!id.is_ok()) return id.status();
    // Decoy stream interleaved through the same service: its chunks share
    // superbatches with the primary session's, so the partition filter must
    // keep the two streams' matches apart.
    std::optional<serve::SessionId> decoy;
    if (rng.next_bool(0.5)) {
      Result<serve::SessionId> d = srv.open();
      if (!d.is_ok()) return d.status();
      decoy = d.value();
    }

    const std::string_view text = w.text();
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t len = 0;
      switch (rng.next_below(4)) {
        case 0: len = 0; break;                          // empty feed
        case 1: len = 1; break;                          // byte-at-a-time
        case 2: len = 1 + rng.next_below(16); break;     // small slices
        default: len = 1 + rng.next_below(256); break;   // packet-sized
      }
      len = std::min(len, text.size() - pos);
      if (Status s = srv.feed(id.value(), text.substr(pos, len)); !s) return s;
      pos += len;
      if (decoy.has_value() && rng.next_bool(0.5)) {
        const std::size_t dlen =
            std::min<std::size_t>(1 + rng.next_below(64), text.size());
        if (Status s = srv.feed(*decoy, text.substr(0, dlen)); !s) return s;
      }
    }
    if (Status s = srv.drain(); !s) return s;
    Result<std::vector<ac::Match>> out = srv.poll(id.value());
    if (!out.is_ok()) return out.status();
    std::vector<ac::Match> matches = std::move(out).value();
    ac::normalize_matches(matches);
    return matches;
  }
};

/// End-to-end cluster adapter: drives the multi-device Router tier
/// (cluster/router.h). The salt draws the shard count from {1, 2, 4}, the
/// stream count/batch and queue knobs like the serve adapter, and — on a
/// coin flip when more than one shard is up — injects a fail-stop device
/// failure at a salt-chosen midpoint of the stream, so roughly half of all
/// conformance trials exercise the export -> import session migration and
/// its boundary-state carry. A second coin flip runs
/// the bulk scatter/gather scan() path instead of the session path, probing
/// the slab seam filter and the k-way merge. Overrides try_run to forward
/// the Router's own Status codes.
class RouterMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "router";
    return n;
  }

  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    return try_run(w, salt).value();  // throws acgpu::Error on a failed Status
  }

  Result<std::vector<ac::Match>> try_run(const CompiledWorkload& w,
                                         std::uint64_t salt) const override {
    Rng rng(derive_seed(salt, /*stream=*/13));
    cluster::ClusterOptions opt;
    static constexpr std::uint32_t kDevices[] = {1, 2, 4};
    opt.devices = kDevices[rng.next_below(std::size(kDevices))];
    opt.engine.streams = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t cap = rng.next_bool(0.25)
                                  ? w.text().size() + 16
                                  : std::min<std::uint64_t>(w.text().size(), 64);
    opt.engine.batch_bytes = rng.next_in(1, std::max<std::uint64_t>(1, cap));
    opt.engine.chunk_bytes = draw_pipeline_chunk(w, rng);
    opt.engine.threads_per_block = 64;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu = sim_config();
    opt.device.memory_bytes = 64u << 20;
    opt.queue.max_queue_chunks = 2 + static_cast<std::uint32_t>(rng.next_below(15));
    opt.queue.coalesce_bytes = 1 + rng.next_below(4096);
    opt.admission = serve::AdmissionPolicy::kAutoFlush;

    auto router = cluster::Router::create(w.patterns(), opt);
    if (!router.is_ok()) return router.status();
    cluster::Router& cl = router.value();
    const std::string_view text = w.text();
    const bool inject_failure = opt.devices > 1 && rng.next_bool(0.5);

    if (rng.next_bool(0.33)) {
      // Bulk scatter/gather path. A pre-scan failure shrinks the healthy
      // set, so the slab partition and seam filter re-derive for W-1.
      if (inject_failure) {
        const std::uint32_t victim =
            static_cast<std::uint32_t>(rng.next_below(opt.devices));
        if (Status s = cl.mark_failed(victim); !s) return s;
      }
      Result<cluster::ClusterScanResult> scan = cl.scan(text);
      if (!scan.is_ok()) return scan.status();
      return std::move(scan).value().matches;
    }

    Result<serve::SessionId> id = cl.open();
    if (!id.is_ok()) return id.status();
    // Decoy stream on another shard (or the same one when devices == 1):
    // cross-shard traffic must never bleed into the primary session.
    std::optional<serve::SessionId> decoy;
    if (rng.next_bool(0.5)) {
      Result<serve::SessionId> d = cl.open();
      if (!d.is_ok()) return d.status();
      decoy = d.value();
    }
    const std::size_t failure_at =
        inject_failure ? rng.next_below(text.size() + 1) : text.size() + 1;

    std::size_t pos = 0;
    bool failed_yet = false;
    for (;;) {
      if (inject_failure && !failed_yet && pos >= failure_at) {
        // Fail the primary session's CURRENT home mid-stream; the session
        // migrates with its carried boundary state and unpolled matches.
        Result<std::uint32_t> home = cl.shard_of(id.value());
        if (!home.is_ok()) return home.status();
        if (Status s = cl.mark_failed(home.value()); !s) return s;
        failed_yet = true;
      }
      if (pos >= text.size()) break;
      std::size_t len = 0;
      switch (rng.next_below(4)) {
        case 0: len = 0; break;                          // empty feed
        case 1: len = 1; break;                          // byte-at-a-time
        case 2: len = 1 + rng.next_below(16); break;     // small slices
        default: len = 1 + rng.next_below(256); break;   // packet-sized
      }
      len = std::min(len, text.size() - pos);
      if (Status s = cl.feed(id.value(), text.substr(pos, len)); !s) return s;
      pos += len;
      if (decoy.has_value() && rng.next_bool(0.5)) {
        const std::size_t dlen =
            std::min<std::size_t>(1 + rng.next_below(64), text.size());
        if (Status s = cl.feed(*decoy, text.substr(0, dlen)); !s) return s;
      }
    }
    if (Status s = cl.drain(); !s) return s;
    return cl.poll(id.value());
  }
};

/// Adaptive-dispatch adapter: a Router on 1 or 2 devices wired with a
/// Dispatcher (cluster::ClusterOptions::dispatcher). The salt draws the
/// device count, stream count, batch size — and, crucially,
/// the force policy from all five of {auto, serial, parallel, gpu, worst}
/// and the path: a bulk scan(), which the dispatcher sends whole to the
/// host DFA or scatters across the devices, or a session fed in random
/// slices, whose superbatches the serve layer routes one by one. Whatever
/// backend the cost model (or the override) picks, the match multiset must
/// be identical, which is exactly the dispatcher's correctness contract —
/// routing is a pure timing decision, invisible to matches. The analytic
/// seed prices every decision (no calibration probes), so Functional-mode
/// trials stay fast. Overrides try_run to forward the Router's own Status
/// codes.
class DispatchMatcher final : public Matcher {
 public:
  const std::string& name() const override {
    static const std::string n = "dispatch";
    return n;
  }

  std::vector<ac::Match> run(const CompiledWorkload& w, std::uint64_t salt) const override {
    return try_run(w, salt).value();  // throws acgpu::Error on a failed Status
  }

  Result<std::vector<ac::Match>> try_run(const CompiledWorkload& w,
                                         std::uint64_t salt) const override {
    Rng rng(derive_seed(salt, /*stream=*/17));
    static constexpr dispatch::ForcePolicy kPolicies[] = {
        dispatch::ForcePolicy::kAuto,     dispatch::ForcePolicy::kSerial,
        dispatch::ForcePolicy::kParallel, dispatch::ForcePolicy::kGpu,
        dispatch::ForcePolicy::kWorst,
    };
    dispatch::DispatcherOptions dopt;
    dopt.force = kPolicies[rng.next_below(std::size(kPolicies))];
    // Declared before the Router, so it outlives it.
    dispatch::Dispatcher dispatcher(w.dfa(), dopt);

    cluster::ClusterOptions opt;
    opt.devices = 1 + static_cast<std::uint32_t>(rng.next_below(2));
    opt.engine.streams = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t cap = rng.next_bool(0.25)
                                  ? w.text().size() + 16
                                  : std::min<std::uint64_t>(w.text().size(), 64);
    opt.engine.batch_bytes = rng.next_in(1, std::max<std::uint64_t>(1, cap));
    opt.engine.chunk_bytes = draw_pipeline_chunk(w, rng);
    opt.engine.threads_per_block = 64;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.device.gpu = sim_config();
    opt.device.memory_bytes = 64u << 20;
    opt.queue.coalesce_bytes = 1 + rng.next_below(4096);
    opt.admission = serve::AdmissionPolicy::kAutoFlush;
    opt.dispatcher = &dispatcher;

    auto router = cluster::Router::create(w.patterns(), opt);
    if (!router.is_ok()) return router.status();
    cluster::Router& cl = router.value();
    const std::string_view text = w.text();

    if (rng.next_bool(0.5)) {
      Result<cluster::ClusterScanResult> scan = cl.scan(text);
      if (!scan.is_ok()) return scan.status();
      return std::move(scan).value().matches;
    }

    Result<serve::SessionId> id = cl.open();
    if (!id.is_ok()) return id.status();
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.next_below(256), text.size() - pos);
      if (Status s = cl.feed(id.value(), text.substr(pos, len)); !s) return s;
      pos += len;
    }
    if (Status s = cl.drain(); !s) return s;
    Result<std::vector<ac::Match>> polled = cl.poll(id.value());
    if (!polled.is_ok()) return polled.status();
    std::vector<ac::Match> out = std::move(polled).value();
    ac::normalize_matches(out);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::unique_ptr<Matcher> instantiate(std::string_view name) {
  if (name == "naive") return std::make_unique<NaiveMatcher>();
  if (name == "nfa") return std::make_unique<NfaMatcher>();
  if (name == "serial") return std::make_unique<SerialMatcher>();
  if (name == "chunked") return std::make_unique<ChunkedMatcher>();
  if (name == "parallel") return std::make_unique<ParallelMatcher>();
  if (name == "stream") return std::make_unique<StreamAdapter>();
  if (name == "compressed") return std::make_unique<CompressedMatcher>();
  if (name == "pfac") return std::make_unique<PfacMatcher>();
  if (name == "gpu-global")
    return std::make_unique<GpuAcMatcher>("gpu-global", kernels::Approach::kGlobalOnly,
                                          kernels::StoreScheme::kDiagonal);
  if (name == "gpu-shared")
    return std::make_unique<GpuAcMatcher>("gpu-shared", kernels::Approach::kShared,
                                          kernels::StoreScheme::kDiagonal);
  if (name == "gpu-shared-naive")
    return std::make_unique<GpuAcMatcher>("gpu-shared-naive",
                                          kernels::Approach::kShared,
                                          kernels::StoreScheme::kCoalescedNaive);
  if (name == "gpu-compressed")
    return std::make_unique<GpuAcMatcher>("gpu-compressed", kernels::Approach::kShared,
                                          kernels::StoreScheme::kDiagonal, true);
  if (name == "gpu-pfac") return std::make_unique<GpuPfacMatcher>();
  if (name == "pipeline") return std::make_unique<PipelineMatcher>();
  if (name == "serve") return std::make_unique<ServeMatcher>();
  if (name == "router") return std::make_unique<RouterMatcher>();
  if (name == "dispatch") return std::make_unique<DispatchMatcher>();
  return nullptr;
}

}  // namespace

const std::vector<std::string>& registered_matcher_names() {
  static const std::vector<std::string> names = {
      "naive",      "nfa",        "serial",         "chunked",
      "parallel",   "stream",     "compressed",     "pfac",
      "gpu-global", "gpu-shared", "gpu-shared-naive", "gpu-compressed",
      "gpu-pfac",   "pipeline",   "serve",          "router",
      "dispatch",
  };
  return names;
}

std::unique_ptr<Matcher> make_matcher(std::string_view name) {
  auto matcher = instantiate(name);
  if (!matcher) {
    std::ostringstream known;
    for (const auto& n : registered_matcher_names()) known << " " << n;
    ACGPU_CHECK(false, "unknown matcher '" << name << "'; registered:" << known.str());
  }
  return matcher;
}

std::vector<std::unique_ptr<Matcher>> make_all_matchers() {
  std::vector<std::unique_ptr<Matcher>> out;
  for (const auto& name : registered_matcher_names())
    out.push_back(make_matcher(name));
  return out;
}

std::vector<std::unique_ptr<Matcher>> make_matchers(
    const std::vector<std::string>& names) {
  if (names.empty()) return make_all_matchers();
  std::vector<std::unique_ptr<Matcher>> out;
  for (const auto& name : names) out.push_back(make_matcher(name));
  return out;
}

}  // namespace acgpu::oracle
