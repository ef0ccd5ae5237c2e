// Tracer span nesting/ordering and Chrome-trace JSON round trips: the
// emitted file must parse (telemetry/json.h), and every track's slices must
// be monotone and either disjoint or properly nested — Perfetto renders
// anything else as garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <thread>

#include "pipeline/engine.h"
#include "pipeline/telemetry_export.h"
#include "telemetry/json.h"
#include "telemetry/trace.h"
#include "workload/dna.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace acgpu::telemetry {
namespace {

TEST(Tracer, RecordsNestingAsParentLinks) {
  Tracer tracer;
  {
    ACGPU_TRACE_SPAN(&tracer, "outer");
    {
      ACGPU_TRACE_SPAN(&tracer, "inner");
    }
    {
      Span s(&tracer, "sibling");
      s.annotate("key", "value");
    }
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: inner, sibling, outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[2].name, "outer");
  const TraceEvent& outer = events[2];
  EXPECT_EQ(events[0].parent, outer.id);
  EXPECT_EQ(events[1].parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  // The parent span encloses its children on the timeline.
  for (int i : {0, 1}) {
    EXPECT_GE(events[i].start_ns, outer.start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              outer.start_ns + outer.dur_ns);
  }
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "key");
  EXPECT_EQ(events[1].args[0].second, "value");
}

TEST(Tracer, NullTracerSpansAreNoOps) {
  Tracer* off = nullptr;
  ACGPU_TRACE_SPAN(off, "ignored");
  Span s(off, "also ignored");
  s.annotate("k", "v");  // must not crash
}

TEST(Tracer, ThreadsGetTheirOwnTracks) {
  Tracer tracer;
  {
    ACGPU_TRACE_SPAN(&tracer, "main");
    std::thread worker([&tracer] { ACGPU_TRACE_SPAN(&tracer, "worker"); });
    worker.join();
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].track, events[1].track);
  // A span opened on another thread is not a child of this thread's span.
  for (const TraceEvent& e : events) EXPECT_EQ(e.parent, 0u);
}

TEST(Tracer, OpenSpansAreExcludedFromEvents) {
  Tracer tracer;
  const std::uint64_t id = tracer.begin_span("open");
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.end_span(id);
  EXPECT_EQ(tracer.event_count(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON round trips.
// ---------------------------------------------------------------------------

struct ParsedSlice {
  double ts = 0, dur = 0;
};

/// Parses trace JSON and groups the ph:"X" slices per (pid, tid) in file
/// order; asserts the envelope shape along the way.
std::map<std::pair<double, double>, std::vector<ParsedSlice>> slices_by_track(
    const std::string& text) {
  const std::optional<JsonValue> doc = parse_json(text);
  EXPECT_TRUE(doc.has_value()) << "trace JSON must parse";
  std::map<std::pair<double, double>, std::vector<ParsedSlice>> tracks;
  if (!doc.has_value()) return tracks;
  const JsonValue* events = doc->find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  for (const JsonValue& e : events->array()) {
    const JsonValue* ph = e.find("ph");
    EXPECT_TRUE(ph != nullptr && ph->is_string());
    if (ph == nullptr || !ph->is_string() || ph->string() != "X") continue;
    ParsedSlice s;
    s.ts = e.number_at("ts").value();
    s.dur = e.number_at("dur").value();
    tracks[{e.number_at("pid").value(), e.number_at("tid").value()}].push_back(s);
  }
  return tracks;
}

/// Every track: starts monotone; consecutive slices disjoint or nested.
void expect_tracks_well_formed(
    const std::map<std::pair<double, double>, std::vector<ParsedSlice>>& tracks) {
  const double eps = 1e-3;  // written at ns precision, in us units
  for (const auto& [key, slices] : tracks) {
    for (std::size_t i = 1; i < slices.size(); ++i) {
      const ParsedSlice& prev = slices[i - 1];
      const ParsedSlice& cur = slices[i];
      EXPECT_GE(cur.ts + eps, prev.ts)
          << "track (" << key.first << "," << key.second << ") slice " << i;
      const bool disjoint = cur.ts + eps >= prev.ts + prev.dur;
      const bool nested = cur.ts + cur.dur <= prev.ts + prev.dur + eps;
      EXPECT_TRUE(disjoint || nested)
          << "track (" << key.first << "," << key.second << ") slice " << i
          << " overlaps its predecessor without nesting";
    }
  }
}

/// Thread/process names declared via ph:"M" metadata events.
std::vector<std::string> metadata_names(const std::string& text,
                                        const std::string& which) {
  std::vector<std::string> names;
  const std::optional<JsonValue> doc = parse_json(text);
  if (!doc.has_value()) return names;
  for (const JsonValue& e : doc->find("traceEvents")->array()) {
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    if (ph == nullptr || !ph->is_string() || ph->string() != "M") continue;
    if (name == nullptr || name->string() != which) continue;
    names.push_back(e.find("args")->find("name")->string());
  }
  return names;
}

TEST(ChromeTrace, HandBuiltSlicesRoundTrip) {
  ChromeTrace trace;
  const std::uint64_t pid = trace.process("test process");
  const std::uint64_t tid = trace.track(pid, "test track");
  trace.add_slice(pid, tid, "outer", 1000, 5000, {{"k", "v"}});
  trace.add_slice(pid, tid, "inner", 2000, 1000);
  trace.add_slice(pid, tid, "later", 7000, 500);
  trace.add_counter(pid, "depth", 1000, 1);
  trace.add_counter(pid, "depth", 6000, 0);

  std::ostringstream out;
  trace.write(out);
  const std::string text = out.str();

  const auto tracks = slices_by_track(text);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks.begin()->second.size(), 3u);
  expect_tracks_well_formed(tracks);

  const auto pnames = metadata_names(text, "process_name");
  ASSERT_EQ(pnames.size(), 1u);
  EXPECT_EQ(pnames[0], "test process");
  const auto tnames = metadata_names(text, "thread_name");
  ASSERT_EQ(tnames.size(), 1u);
  EXPECT_EQ(tnames[0], "test track");

  // Counter samples survive as ph:"C" events.
  const std::optional<JsonValue> doc = parse_json(text);
  int counters = 0;
  for (const JsonValue& e : doc->find("traceEvents")->array())
    if (e.find("ph")->string() == "C") ++counters;
  EXPECT_EQ(counters, 2);
}

TEST(ChromeTrace, TracerSpansExportNestedNotOverlapping) {
  Tracer tracer;
  {
    ACGPU_TRACE_SPAN(&tracer, "a");
    { ACGPU_TRACE_SPAN(&tracer, "b"); }
    { ACGPU_TRACE_SPAN(&tracer, "c"); }
  }
  ChromeTrace trace;
  trace.add_tracer(tracer);
  std::ostringstream out;
  trace.write(out);
  const auto tracks = slices_by_track(out.str());
  ASSERT_EQ(tracks.size(), 1u);  // one host thread -> one track
  EXPECT_EQ(tracks.begin()->second.size(), 3u);
  expect_tracks_well_formed(tracks);
}

TEST(ChromeTrace, BackToBackOpsShareTheirRoundedBoundary) {
  // Op A runs 0.6-2.4 ns and op B starts where A ends. Rounded on its own,
  // A's 1.8 ns duration becomes 2 ns from a start of 1 ns, so A would end at
  // 3 ns, past B's rounded start of 2 ns. Rounding both ends keeps them
  // back to back on the stream track.
  pipeline::PipelineResult result;
  gpusim::StreamOp a;
  a.id = 0;
  a.kind = gpusim::StreamOpKind::kH2D;
  a.start = 0.6e-9;
  a.end = 2.4e-9;
  a.bytes = 64;
  a.label = "h2d b0";
  gpusim::StreamOp b = a;
  b.id = 1;
  b.kind = gpusim::StreamOpKind::kKernel;
  b.start = 2.4e-9;
  b.end = 5e-9;
  b.bytes = 0;
  b.label = "kernel b0";
  result.timeline = {a, b};

  ChromeTrace trace;
  pipeline::add_scan_to_trace(trace, result);
  std::ostringstream out;
  trace.write(out);
  const auto tracks = slices_by_track(out.str());
  const auto ns = [](double us) { return std::llround(us * 1e3); };
  bool checked = false;
  for (const auto& [key, slices] : tracks) {
    if (slices.size() < 2) continue;  // the engine tracks hold one op each
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(ns(slices[0].ts), 1);
    EXPECT_EQ(ns(slices[0].ts) + ns(slices[0].dur), 2);
    EXPECT_LE(ns(slices[0].ts) + ns(slices[0].dur), ns(slices[1].ts));
    checked = true;
  }
  EXPECT_TRUE(checked);
}

// End-to-end: a real (small) multi-stream pipeline run exported through
// pipeline/telemetry_export.h must parse, carry >= 2 stream tracks plus the
// engine tracks, keep every track well-formed, and include the counter
// tracks.
TEST(ChromeTrace, PipelineExportHasStreamAndEngineTracks) {
  const std::string corpus = workload::make_corpus(300 * 1024, 11);
  workload::ExtractConfig ec;
  ec.count = 50;
  ec.min_length = 4;
  ec.max_length = 12;
  const ac::PatternSet patterns =
      workload::extract_patterns({corpus.data() + 256 * 1024, 44 * 1024}, ec);

  Tracer tracer;
  EngineOptions opt;
  opt.streams = 2;
  opt.batch_bytes = 64 * 1024;
  opt.mode = gpusim::SimMode::Timed;
  opt.telemetry.tracer = &tracer;
  Result<Device> device = Device::create({});
  ASSERT_TRUE(device.is_ok()) << device.status().to_string();
  Result<Engine> engine = Engine::create(device.value(), patterns, opt);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  Result<ScanResult> scan =
      engine.value().scan({corpus.data(), 256 * 1024});
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();

  std::ostringstream out;
  pipeline::write_chrome_trace(scan.value(), &tracer, out);
  const std::string text = out.str();

  const auto tnames = metadata_names(text, "thread_name");
  int stream_tracks = 0;
  bool copy = false, compute = false;
  for (const std::string& n : tnames) {
    if (n.rfind("stream ", 0) == 0) ++stream_tracks;
    if (n == "copy engine") copy = true;
    if (n == "compute engine") compute = true;
  }
  EXPECT_GE(stream_tracks, 2);
  EXPECT_TRUE(copy);
  EXPECT_TRUE(compute);
  // Two processes: host spans + simulated device.
  EXPECT_EQ(metadata_names(text, "process_name").size(), 2u);

  expect_tracks_well_formed(slices_by_track(text));

  const std::optional<JsonValue> doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  bool queue_counter = false, busy_counter = false;
  for (const JsonValue& e : doc->find("traceEvents")->array()) {
    if (e.find("ph")->string() != "C") continue;
    const std::string& name = e.find("name")->string();
    queue_counter |= name == "pipeline.queue_depth";
    busy_counter |= name == "device.engines_busy";
  }
  EXPECT_TRUE(queue_counter);
  EXPECT_TRUE(busy_counter);
}

// The pipeline.run span carries the run's batch plan, so a trace shows why
// a scan split as it did: the batch count, the owned bytes per batch, and
// the bits per symbol the whole text packs to (which prices it at 2/8 or
// 6/8 of its bytes).
TEST(Tracer, PipelineRunSpanCarriesTheBatchPlan) {
  // Scans `texts` on one fresh engine; returns the last pipeline.run span's
  // plan args, after checking that its critical-path args sum to the last
  // scan's makespan.
  const auto run_args = [](const std::vector<std::string>& texts) {
    Tracer tracer;
    EngineOptions opt;
    opt.mode = gpusim::SimMode::Timed;
    opt.telemetry.tracer = &tracer;
    Result<Device> device = Device::create({});
    EXPECT_TRUE(device.is_ok()) << device.status().to_string();
    // "x" followed by each of 0x80-0xbf gives those bytes classes of their
    // own: 73 in all, so random bytes ship one byte per symbol.
    std::vector<std::string> patterns = {"ACGTACGT", "the "};
    for (int b = 0x80; b < 0xc0; ++b)
      patterns.push_back(std::string("x") + static_cast<char>(b));
    Result<Engine> engine = Engine::create(device.value(), ac::PatternSet(patterns), opt);
    EXPECT_TRUE(engine.is_ok()) << engine.status().to_string();
    double makespan = 0;
    for (const std::string& text : texts) {
      Result<ScanResult> scan = engine.value().scan(text);
      EXPECT_TRUE(scan.is_ok());
      if (scan.is_ok()) makespan = scan.value().stats.makespan_seconds;
    }
    const std::vector<TraceEvent> events = tracer.events();
    const TraceEvent* last_run = nullptr;
    for (const TraceEvent& e : events)
      if (e.name == "pipeline.run") last_run = &e;
    EXPECT_NE(last_run, nullptr);
    if (last_run == nullptr) return std::map<std::string, std::string>{};
    std::size_t batch_spans = 0;
    for (const TraceEvent& e : events)
      batch_spans += e.name == "pipeline.batch" && e.parent == last_run->id;
    std::map<std::string, std::string> args(last_run->args.begin(), last_run->args.end());
    EXPECT_EQ(args["batches"], std::to_string(batch_spans));
    double critical = 0;
    for (const char* key :
         {"critical_h2d_seconds", "critical_kernel_seconds", "critical_d2h_seconds"}) {
      EXPECT_EQ(args.count(key), 1u) << key;
      critical += std::stod(args[key]);
      args.erase(key);
    }
    EXPECT_NEAR(critical, makespan, makespan * 1e-5);
    return args;
  };
  // A fresh engine assumes a tail share of 1: 512 KiB of English, staged at
  // 6 bits per symbol, splits in three on the GTX 285 link...
  EXPECT_EQ(run_args({workload::make_corpus(512u << 10, 5)}),
            (std::map<std::string, std::string>{{"batches", "3"},
                                                {"batch_bytes", "174763"},
                                                {"symbol_bits", "6"},
                                                {"tail_share", "1"}}));
  // ...512 KiB of DNA, staged at 2 bits per base, in two, and 512 KiB of
  // random bytes, staged whole, in four.
  EXPECT_EQ(run_args({workload::make_dna_sequence(512u << 10, 5)}),
            (std::map<std::string, std::string>{{"batches", "2"},
                                                {"batch_bytes", "262144"},
                                                {"symbol_bits", "2"},
                                                {"tail_share", "1"}}));
  std::string bytes(512u << 10, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 131 % 251);
  EXPECT_EQ(run_args({bytes}),
            (std::map<std::string, std::string>{{"batches", "4"},
                                                {"batch_bytes", "131072"},
                                                {"symbol_bits", "8"},
                                                {"tail_share", "1"}}));
  // After scans 4x apart in size the span names the fitted share, and the
  // split follows it.
  const std::map<std::string, std::string> fitted =
      run_args({workload::make_corpus(32u << 10, 6), workload::make_corpus(128u << 10, 7),
                workload::make_corpus(512u << 10, 5)});
  EXPECT_NE(fitted.at("tail_share"), "1");
  EXPECT_EQ(fitted.at("symbol_bits"), "6");
}

}  // namespace
}  // namespace acgpu::telemetry
