// acgpu_e2e — the end-to-end benchmark: each request goes in at
// cluster::Router::scan/feed and is timed until its matches come back,
// through serve, dispatch, the batched pipeline and the simulated kernels.
//
//   acgpu_e2e --workload bulk_text_1k --seed 780 --seconds 10 --trace 0
//
// --trace 0 runs the end-to-end measurement with all telemetry off. It
// reports the request path in both clocks: simulated seconds (deterministic,
// the paper's clock) and host wall-clock (the real cost of the C++), plus
// set-up time and peak memory; the host-clock numbers are printed but kept
// out of the result, see README.md. --trace 1 runs one untraced and one
// traced pass of the same inputs and reports the per-layer breakdown,
// writing the joined trace to --out-dir. The last line of stdout is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every match is checked against ac::find_all; a mismatch exits 1.
// README.md defines the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ac/serial_matcher.h"
#include "cluster/router.h"
#include "dispatch/dispatcher.h"
#include "layers.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "util/arg_parser.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace {

using namespace acgpu;
using e2e::Inputs;
using e2e::Metric;
using e2e::MetricList;
using e2e::Slice;
using e2e::Workload;

// The fixed system configuration every workload runs against.
constexpr std::uint32_t kDevices = 2;
constexpr std::uint32_t kStreams = 4;
constexpr std::uint64_t kBatchBytes = 4u << 20;
/// Four modeled cores: the default of 8 would oversubscribe a 4-core host
/// whenever the dispatcher picks the parallel CPU scan.
constexpr unsigned kParallelThreads = 4;
constexpr std::uint64_t kCalibrationBytes = 1u << 20;
/// Router::scan builds each shard's bulk engine on first use, and a
/// session's first feed warms the serve path; one untimed 64 KB request
/// through the workload's own path runs first and is charged to set-up.
constexpr std::uint64_t kWarmupBytes = 64u << 10;
/// setup_s is the median of this many full set-ups.
constexpr int kSetups = 3;

/// One stood-up system. The dispatcher keeps a reference to `dfa` and the
/// router one to the dispatcher, so the object stays put on the heap and
/// members are destroyed router first.
struct System {
  explicit System(ac::Dfa compiled) : dfa(std::move(compiled)) {}
  ac::Dfa dfa;
  std::optional<dispatch::Dispatcher> dispatcher;
  std::optional<cluster::Router> router;
};

struct Telemetry {
  telemetry::MetricsRegistry* metrics = nullptr;  ///< null = untraced
  telemetry::Tracer* tracer = nullptr;            ///< the benchmark's own spans
};

std::unique_ptr<System> set_up(const Workload& w, const Inputs& in,
                               const Telemetry& tel, e2e::SetupTimes& times) {
  Stopwatch clock;
  std::unique_ptr<System> sys;
  {
    telemetry::Span span(tel.tracer, "bench.build_dfa");
    sys = std::make_unique<System>(ac::build_dfa(in.patterns));
  }
  times.build_dfa = clock.seconds();

  clock.restart();
  {
    telemetry::Span span(tel.tracer, "bench.calibrate");
    dispatch::DispatcherOptions dopt;
    dopt.cost.parallel_threads = kParallelThreads;
    sys->dispatcher.emplace(sys->dfa, dopt);
    sys->dispatcher->cost_model().calibrate_cpu(
        sys->dfa, std::string_view(in.corpus).substr(0, kCalibrationBytes));
  }
  times.calibrate = clock.seconds();

  clock.restart();
  {
    telemetry::Span span(tel.tracer, "bench.create");
    cluster::ClusterOptions opt;
    opt.devices = kDevices;
    opt.background = false;
    opt.admission = serve::AdmissionPolicy::kAutoFlush;
    opt.engine.streams = kStreams;
    opt.engine.batch_bytes = kBatchBytes;
    opt.engine.mode = gpusim::SimMode::Functional;
    opt.dispatcher = &*sys->dispatcher;
    opt.metrics = tel.metrics;
    opt.trace = tel.metrics != nullptr;
    Result<cluster::Router> router = cluster::Router::create(in.patterns, opt);
    ACGPU_CHECK(router.is_ok(), "Router::create: " << router.status().to_string());
    sys->router.emplace(std::move(router).value());
  }
  times.create = clock.seconds();

  clock.restart();
  {
    telemetry::Span span(tel.tracer, "bench.warmup");
    cluster::Router& router = *sys->router;
    const std::string_view text =
        std::string_view(in.corpus).substr(0, kWarmupBytes);
    if (w.traffic == e2e::Traffic::kBulk) {
      ACGPU_CHECK(router.scan(text).is_ok(), "warm-up scan failed");
    } else {
      const serve::SessionId id = router.open().value();
      ACGPU_CHECK(router.feed(id, text).is_ok() && router.drain().is_ok() &&
                      router.poll(id).is_ok() && router.close(id).is_ok(),
                  "warm-up session failed");
    }
  }
  times.warmup = clock.seconds();
  return sys;
}

/// Expected matches: per bulk request, or per session's whole stream.
std::vector<std::vector<ac::Match>> references(const ac::Dfa& dfa,
                                               const Inputs& in) {
  const std::vector<Slice>& slices =
      in.requests.empty() ? in.streams : in.requests;
  std::vector<std::vector<ac::Match>> out;
  out.reserve(slices.size());
  for (const Slice& s : slices) {
    out.push_back(ac::find_all(dfa, in.text(s)));
    ac::normalize_matches(out.back());
  }
  return out;
}

struct Limits {
  double seconds = 0;
  bool one_pass = false;
};

/// What one measurement observed. Host numbers cover every request or tick;
/// simulated numbers cover the first pass only, so they repeat exactly for
/// a seed however many passes the time allowed.
struct Measured {
  Samples host_latency;
  double host_seconds = 0;  ///< Σ wall inside Router calls
  std::uint64_t host_bytes = 0;
  Samples sim_latency;
  double sim_seconds = 0;  ///< Σ simulated service
  std::uint64_t sim_bytes = 0;
  double skew_sum = 0;
  std::uint64_t skew_count = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fallback_scans = 0;
  std::uint64_t units = 0;  ///< requests or ticks sent
  double passes = 0;
  double seconds = 0;  ///< the whole measurement loop

  void check(bool ok, const char* what, const std::string& detail = {}) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5)
      std::fprintf(stderr, "acgpu_e2e: %s failed%s%s\n", what,
                   detail.empty() ? "" : ": ", detail.c_str());
  }
};

/// Calls `call` inside a benchmark span and the probe's bookkeeping.
template <typename F>
auto router_call(const Telemetry& tel, e2e::PipelineProbe* probe,
                 const char* name, F&& call) {
  auto result = [&] {
    telemetry::Span span(tel.tracer, name);
    return call();
  }();
  if (probe != nullptr) probe->after_call();
  return result;
}

/// Bulk traffic, closed loop with one client: each scan waits for the last.
void run_bulk(cluster::Router& router, const Inputs& in,
              const std::vector<std::vector<ac::Match>>& expected,
              const Limits& limits, const Telemetry& tel,
              e2e::PipelineProbe* probe, Measured& m) {
  const std::size_t n = in.requests.size();
  Stopwatch clock;
  std::size_t i = 0;
  for (; i < n || (!limits.one_pass && clock.seconds() < limits.seconds); ++i) {
    const Slice req = in.requests[i % n];
    Stopwatch call;
    Result<cluster::ClusterScanResult> r = router_call(
        tel, probe, "bench.scan", [&] { return router.scan(in.text(req)); });
    const double wall = call.seconds();
    m.host_latency.add(wall);
    m.host_seconds += wall;
    m.host_bytes += req.bytes;
    if (!r.is_ok()) {
      m.check(false, "Router::scan", r.status().to_string());
      continue;
    }
    const cluster::ClusterScanResult& res = r.value();
    m.check(res.matches == expected[i % n], "bulk match check",
            "request " + std::to_string(i % n));
    if (res.host_fallback) ++m.fallback_scans;
    if (i >= n) continue;
    m.sim_latency.add(res.makespan_seconds);
    m.sim_seconds += res.makespan_seconds;
    m.sim_bytes += req.bytes;
    double sum = 0, max = 0;
    for (const double s : res.per_device_seconds) {
      sum += s;
      max = std::max(max, s);
    }
    if (res.devices_used > 0 && sum > 0) {
      m.skew_sum += max / (sum / res.devices_used);
      ++m.skew_count;
    }
  }
  m.units = i;
  m.passes = static_cast<double>(i) / static_cast<double>(n);
  m.seconds = clock.seconds();
}

/// Session traffic. Host clock: closed loop, a tick's latency is the wall
/// time of its feeds, drain and polls. Simulated clock: open loop, tick k
/// is due at k * T and served once the previous tick is done; its service
/// is the slowest shard's simulated scan time during the tick.
void run_sessions(cluster::Router& router, const Inputs& in,
                  const std::vector<std::vector<ac::Match>>& expected,
                  const Limits& limits, const Telemetry& tel,
                  e2e::PipelineProbe* probe, Measured& m) {
  const std::uint32_t shards = router.shard_count();
  const auto sim_scan_seconds = [&](std::uint32_t k) {
    return router.shard_stats(k).value().service.sim_scan_seconds;
  };
  const auto host_fallbacks = [&] {
    std::uint64_t n = 0;
    for (std::uint32_t k = 0; k < shards; ++k)
      n += router.shard_stats(k).value().service.host_fallbacks;
    return n;
  };
  std::vector<double> scanned(shards);
  for (std::uint32_t k = 0; k < shards; ++k) scanned[k] = sim_scan_seconds(k);
  const std::uint64_t fallbacks_before = host_fallbacks();

  const std::size_t ticks = in.ticks.size();
  const std::size_t sessions = in.streams.size();
  Stopwatch clock;
  const auto stop = [&](std::uint32_t pass) {
    return pass > 0 && (limits.one_pass || clock.seconds() >= limits.seconds);
  };
  for (std::uint32_t pass = 0; !stop(pass); ++pass) {
    std::vector<serve::SessionId> ids(sessions);
    for (serve::SessionId& id : ids) {
      Result<serve::SessionId> r = router.open();
      ACGPU_CHECK(r.is_ok(), "Router::open: " << r.status().to_string());
      id = r.value();
    }
    std::vector<std::uint64_t> fed(sessions, 0);
    std::vector<std::size_t> checked(sessions, 0);  // into expected[s]
    double sim_done = 0;
    std::size_t k = 0;
    for (; k < ticks; ++k) {
      if (stop(pass)) break;
      const std::vector<e2e::Feed>& tick = in.ticks[k];
      std::vector<std::uint32_t> touched;
      std::uint64_t bytes = 0;
      for (const e2e::Feed& f : tick) {
        touched.push_back(f.session);
        bytes += f.text.bytes;
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      std::vector<Result<std::vector<ac::Match>>> polled;
      polled.reserve(touched.size());

      Stopwatch call;
      for (const e2e::Feed& f : tick) {
        const Status s = router_call(tel, probe, "bench.feed", [&] {
          return router.feed(ids[f.session], in.text(f.text));
        });
        m.check(s.is_ok(), "Router::feed", s.to_string());
        if (s.is_ok()) fed[f.session] += f.text.bytes;
      }
      const Status drained =
          router_call(tel, probe, "bench.drain", [&] { return router.drain(); });
      m.check(drained.is_ok(), "Router::drain", drained.to_string());
      for (const std::uint32_t s : touched)
        polled.push_back(router_call(tel, probe, "bench.poll",
                                     [&] { return router.poll(ids[s]); }));
      const double wall = call.seconds();
      m.host_latency.add(wall);
      m.host_seconds += wall;
      m.host_bytes += bytes;

      for (std::size_t i = 0; i < touched.size(); ++i) {
        const std::uint32_t s = touched[i];
        if (!polled[i].is_ok()) {
          m.check(false, "Router::poll", polled[i].status().to_string());
          continue;
        }
        // After drain, a poll returns exactly the matches ending in the
        // bytes fed since the session's last poll.
        const std::vector<ac::Match>& got = polled[i].value();
        const std::vector<ac::Match>& want = expected[s];
        std::size_t end = checked[s];
        while (end < want.size() && want[end].end < fed[s]) ++end;
        m.check(std::equal(got.begin(), got.end(),
                           want.begin() + static_cast<std::ptrdiff_t>(checked[s]),
                           want.begin() + static_cast<std::ptrdiff_t>(end)),
                "session match check", "session " + std::to_string(s));
        checked[s] = end;
      }

      double service = 0, total = 0;
      for (std::uint32_t sh = 0; sh < shards; ++sh) {
        const double now = sim_scan_seconds(sh);
        service = std::max(service, now - scanned[sh]);
        total += now - scanned[sh];
        scanned[sh] = now;
      }
      if (pass > 0) continue;
      const double due = static_cast<double>(k) * in.tick_period_seconds;
      sim_done = std::max(due, sim_done) + service;
      m.sim_latency.add(sim_done - due);
      m.sim_seconds += service;
      m.sim_bytes += bytes;
      if (total > 0) {
        m.skew_sum += service / (total / shards);
        ++m.skew_count;
      }
    }
    m.units += k;
    m.passes += static_cast<double>(k) / static_cast<double>(ticks);
    for (const serve::SessionId id : ids) {
      const Status s = router.close(id);
      ACGPU_CHECK(s.is_ok(), "Router::close: " << s.to_string());
    }
  }
  m.fallback_scans = host_fallbacks() - fallbacks_before;
  m.seconds = clock.seconds();
}

Measured measure(const Workload& w, cluster::Router& router, const Inputs& in,
                 const std::vector<std::vector<ac::Match>>& expected,
                 const Limits& limits, const Telemetry& tel,
                 e2e::PipelineProbe* probe) {
  Measured m;
  if (w.traffic == e2e::Traffic::kBulk)
    run_bulk(router, in, expected, limits, tel, probe, m);
  else
    run_sessions(router, in, expected, limits, tel, probe, m);
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double percentile_ms(const Samples& s, double p) { return s.percentile(p) * 1e3; }

MetricList end_to_end_metrics(const Measured& m, double setup_s) {
  return {
      {"sim_gbps", static_cast<double>(m.sim_bytes) * 8 / m.sim_seconds / 1e9,
       "Gbit/s"},
      {"sim_p50_ms", percentile_ms(m.sim_latency, 50), "ms"},
      {"sim_p90_ms", percentile_ms(m.sim_latency, 90), "ms"},
      {"sim_p99_ms", percentile_ms(m.sim_latency, 99), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// The same request path on the host clock. Reported but not bounded: on a
/// shared host its run-to-run spread is wider than any bound could allow.
MetricList host_metrics(const Measured& m) {
  return {
      {"host.mbps", static_cast<double>(m.host_bytes) / 1e6 / m.host_seconds,
       "MB/s"},
      {"host.p50_ms", percentile_ms(m.host_latency, 50), "ms"},
      {"host.p90_ms", percentile_ms(m.host_latency, 90), "ms"},
      {"host.p99_ms", percentile_ms(m.host_latency, 99), "ms"},
  };
}

void print_table(const MetricList& metrics) {
  for (const Metric& x : metrics)
    std::printf("  %-30s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
}

void print_result(const MetricList& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  print_table(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

void describe(const char* label, const Measured& m) {
  std::printf("%s: %.2f passes (%llu units) in %.2f s; %llu operations, %llu "
              "failed, %llu host-fallback scans\n",
              label, m.passes, static_cast<unsigned long long>(m.units),
              m.seconds, static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.fallback_scans));
  if (m.fallback_scans > 0)
    std::printf("warning: a scan fell back to the host DFA, whose time the "
                "simulated clock does not count; sim_* metrics of this run "
                "are not comparable\n");
}

int run_end_to_end(const Workload& w, const Inputs& in, const Limits& limits,
                   int setups) {
  Samples setup_seconds;
  std::unique_ptr<System> sys;
  for (int i = 0; i < setups; ++i) {
    sys.reset();  // one system alive at a time
    e2e::SetupTimes times;
    sys = set_up(w, in, {}, times);
    setup_seconds.add(times.total());
  }
  const auto expected = references(sys->dfa, in);
  const Measured m =
      measure(w, *sys->router, in, expected, limits, {}, nullptr);
  describe("end-to-end", m);
  print_table(host_metrics(m));
  print_result(end_to_end_metrics(m, setup_seconds.median()), m.attempted,
               m.failed);
  return m.failed == 0 ? 0 : 1;
}

int run_traced(const Workload& w, const Inputs& in,
               const std::string& trace_path) {
  const Limits one_pass{0, true};
  e2e::TracedPass pass;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::vector<ac::Match>> expected;
  MetricList host;
  {
    e2e::SetupTimes times;
    std::unique_ptr<System> sys = set_up(w, in, {}, times);
    expected = references(sys->dfa, in);
    const Measured m =
        measure(w, *sys->router, in, expected, one_pass, {}, nullptr);
    describe("untraced pass", m);
    host = host_metrics(m);
    pass.untraced_router_call_seconds = m.host_seconds;
    attempted += m.attempted;
    failed += m.failed;
  }

  telemetry::MetricsRegistry registry;
  telemetry::Tracer bench_spans;
  const Telemetry tel{&registry, &bench_spans};
  std::unique_ptr<System> sys = set_up(w, in, tel, pass.setup);
  cluster::Router& router = *sys->router;
  pass.dfa_states = sys->dfa.state_count();
  pass.stt_bytes = sys->dfa.stt_bytes();
  pass.shards = router.shard_count();
  pass.before = registry.snapshot();
  pass.dispatch_before = sys->dispatcher->stats();
  pass.spans_before = e2e::span_totals(e2e::fleet_trace(router));

  e2e::PipelineProbe probe(registry, pass.shards);
  const Measured m = measure(w, router, in, expected, one_pass, tel, &probe);
  describe("traced pass", m);
  attempted += m.attempted;
  failed += m.failed;

  pass.after = registry.snapshot();
  pass.dispatch_after = sys->dispatcher->stats();
  const telemetry::JsonValue fleet = e2e::fleet_trace(router);
  pass.spans_after = e2e::span_totals(fleet);
  pass.pipeline_makespan_seconds = probe.makespan_seconds();
  pass.router_call_seconds = m.host_seconds;
  pass.pass_seconds = m.seconds;
  pass.slab_skew = m.skew_count > 0 ? m.skew_sum / m.skew_count : 0;
  pass.fallback_scans = m.fallback_scans;
  e2e::write_trace_file(trace_path, fleet, bench_spans);
  std::printf("trace: %s\n", trace_path.c_str());

  MetricList metrics = e2e::layer_metrics(pass);
  metrics.insert(metrics.end(), host.begin(), host.end());
  for (const Metric& x : metrics)
    if (x.name == "pipeline.bound")
      std::printf("pipeline.bound: %s\n",
                  x.value == 0 ? "h2d" : x.value == 1 ? "kernel" : "d2h");
  print_result(metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "acgpu_e2e: end-to-end benchmark from cluster::Router to the simulated "
      "kernels, in simulated and host time.\nworkloads: " +
      e2e::workload_names());
  args.add_flag("workload", "workload to run", "bulk_text_1k");
  args.add_flag("seed", "input seed (every generator derives from it)", "780");
  args.add_flag("seconds",
                "end-to-end measurement length; the first pass always "
                "completes",
                "10");
  args.add_flag("trace",
                "0: end-to-end metrics, telemetry off; 1: one untraced and "
                "one traced pass, per-layer metrics",
                "0");
  args.add_flag("out-dir", "where --trace 1 writes its trace file", ".");
  args.add_bool_flag("quick",
                     "about 1/20 of every count, one pass, one set-up "
                     "(determinism smoke test)");
  try {
    if (!args.parse(argc, argv)) return 0;
    const Workload* w = e2e::find_workload(args.get("workload"));
    ACGPU_CHECK(w != nullptr, "unknown --workload '" << args.get("workload")
                                                     << "'; one of "
                                                     << e2e::workload_names());
    const std::int64_t trace = args.get_int("trace");
    ACGPU_CHECK(trace == 0 || trace == 1, "--trace must be 0 or 1");
    const bool quick = args.get_bool("quick");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const Inputs in = e2e::make_inputs(*w, seed, quick);
    std::printf("acgpu_e2e %s, seed %llu: %zu patterns, %zu %s a pass\n",
                w->name, static_cast<unsigned long long>(seed),
                in.patterns.size(),
                in.requests.empty() ? in.ticks.size() : in.requests.size(),
                in.requests.empty() ? "ticks" : "requests");
    if (trace == 1)
      return run_traced(*w, in,
                        args.get("out-dir") + "/" + w->name + ".trace.json");
    return run_end_to_end(*w, in, {args.get_double("seconds"), quick},
                          quick ? 1 : kSetups);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acgpu_e2e: %s\n", e.what());
    return 2;
  }
}
