// acgpu_cli — a small production-style frontend for the library:
//
//   acgpu_cli compile --patterns=words.txt --out=dict.acdfa
//   acgpu_cli scan    --dict=dict.acdfa file1 file2 ...
//   acgpu_cli scan    --patterns=words.txt --matcher=gpu file.txt
//
// Compiles dictionaries to the binary DFA format (ac/dfa.h), scans files
// with any of the matchers (serial / parallel / compressed / simulated-GPU),
// and prints per-file match statistics.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "acgpu.h"

using namespace acgpu;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ACGPU_CHECK(static_cast<bool>(in), "cannot open '" << path << "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ac::PatternSet load_patterns(const std::string& path) {
  // One pattern per line; blank lines and '#' comments ignored.
  std::istringstream in(read_file(path));
  std::vector<std::string> patterns;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    patterns.push_back(line);
  }
  ACGPU_CHECK(!patterns.empty(), "no patterns in '" << path << "'");
  return ac::PatternSet(std::move(patterns));
}

ac::Dfa resolve_dfa(const ArgParser& args) {
  const std::string dict = args.get("dict");
  if (!dict.empty()) {
    std::ifstream in(dict, std::ios::binary);
    ACGPU_CHECK(static_cast<bool>(in), "cannot open dictionary '" << dict << "'");
    return ac::Dfa::load(in);
  }
  const std::string patterns = args.get("patterns");
  ACGPU_CHECK(!patterns.empty(), "need --dict=<file> or --patterns=<file>");
  return ac::build_dfa(load_patterns(patterns), /*pad_pitch_to=*/8);
}

int cmd_compile(const ArgParser& args) {
  const ac::Dfa dfa = ac::build_dfa(load_patterns(args.get("patterns")), 8);
  const std::string out_path = args.get("out");
  ACGPU_CHECK(!out_path.empty(), "compile needs --out=<file>");
  std::ofstream out(out_path, std::ios::binary);
  ACGPU_CHECK(static_cast<bool>(out), "cannot write '" << out_path << "'");
  dfa.save(out);
  std::printf("compiled %zu patterns -> %u states, %s STT -> %s\n",
              dfa.pattern_count(), dfa.state_count(),
              format_bytes(dfa.stt_bytes()).c_str(), out_path.c_str());
  return 0;
}

int cmd_scan(const ArgParser& args, const std::vector<std::string>& files) {
  const CompiledPatterns compiled = CompiledPatterns::compile(resolve_dfa(args)).value();
  const ac::Dfa& dfa = compiled.dfa();
  const std::string matcher = args.get("matcher");
  const bool quiet = args.get_bool("count-only");

  // Telemetry sinks (gpu matcher only): --trace accumulates every file's
  // simulated timeline (plus the host spans) into one Chrome trace; --stats
  // prints the metrics snapshot after the scans.
  const std::string trace_path = args.get("trace");
  const bool want_stats = args.get_bool("stats");
  const bool want_telemetry = !trace_path.empty() || want_stats;
  ACGPU_CHECK(!want_telemetry || matcher == "gpu",
              "--trace/--stats need --matcher=gpu");
  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer;
  telemetry::ChromeTrace chrome;

  // --chunk-bytes=N streams each file through the session service in N-byte
  // feeds instead of one resident scan; matches are identical either way
  // (the serve conformance suite enforces it). Trace export is per-scan and
  // has no streaming analogue, so the two flags are mutually exclusive.
  const std::uint64_t chunk_bytes =
      static_cast<std::uint64_t>(args.get_bytes("chunk-bytes"));
  ACGPU_CHECK(chunk_bytes == 0 || matcher == "gpu",
              "--chunk-bytes needs --matcher=gpu");
  ACGPU_CHECK(chunk_bytes == 0 || trace_path.empty(),
              "--chunk-bytes streams through the session service; "
              "--trace only applies to one-shot scans");

  // The gpu path goes through acgpu::Engine on an explicit Device — built
  // once, scanning every file through the batched multi-stream pipeline.
  // With --chunk-bytes the Engine is owned by a StreamService that carries
  // DFA state across feeds.
  std::optional<Device> device;
  std::optional<Engine> engine;
  std::optional<serve::StreamService> service;
  if (matcher == "gpu") {
    EngineOptions opt;
    opt.streams = static_cast<std::uint32_t>(args.get_int("streams"));
    opt.batch_bytes = static_cast<std::uint64_t>(args.get_bytes("batch"));
    opt.match_capacity = 128;
    if (want_telemetry) {
      opt.telemetry.metrics = &registry;
      opt.telemetry.tracer = &tracer;
    }
    if (chunk_bytes > 0) {
      serve::ServeOptions sopt;
      sopt.engine = opt;
      sopt.admission = serve::AdmissionPolicy::kAutoFlush;
      Result<serve::StreamService> created =
          serve::StreamService::create(compiled, sopt);
      ACGPU_CHECK(created.is_ok(), created.status().to_string());
      service.emplace(std::move(created).value());
    } else {
      Result<Device> dev = Device::create();
      ACGPU_CHECK(dev.is_ok(), dev.status().to_string());
      device.emplace(std::move(dev).value());
      Result<Engine> created = Engine::create(*device, compiled, opt);
      ACGPU_CHECK(created.is_ok(), created.status().to_string());
      engine.emplace(std::move(created).value());
    }
  }

  Table table;
  table.set_header({"file", "bytes", "matches", "time", "MB/s"});
  for (const std::string& path : files) {
    const std::string text = read_file(path);
    Stopwatch clock;
    std::uint64_t count = 0;
    std::vector<ac::Match> matches;
    if (matcher == "serial") {
      count = ac::count_matches(dfa, text);
    } else if (matcher == "parallel") {
      count = ac::count_matches_parallel(dfa, text);
    } else if (matcher == "compressed") {
      const ac::CompressedStt c(dfa);
      clock.restart();  // exclude compression from the scan time
      ac::CountSink sink;
      ac::match_compressed(c, dfa, text, sink);
      count = sink.count();
    } else if (matcher == "gpu" && service.has_value()) {
      // One session per file: feed --chunk-bytes slices, drain, poll. The
      // session's boundary continuation makes the chunking invisible.
      Result<serve::SessionId> session = service->open();
      ACGPU_CHECK(session.is_ok(), session.status().to_string());
      for (std::size_t pos = 0; pos < text.size(); pos += chunk_bytes) {
        const Status fed = service->feed(
            session.value(), std::string_view(text).substr(pos, chunk_bytes));
        ACGPU_CHECK(fed.is_ok(), fed.to_string());
      }
      ACGPU_CHECK(service->drain().is_ok(), "drain failed");
      Result<std::vector<ac::Match>> polled = service->poll(session.value());
      ACGPU_CHECK(polled.is_ok(), polled.status().to_string());
      matches = std::move(polled).value();
      ac::normalize_matches(matches);  // discovery order -> one-shot order
      count = matches.size();
      ACGPU_CHECK(service->close(session.value()).is_ok(), "close failed");
    } else if (matcher == "gpu") {
      Result<ScanResult> scan = engine->scan(text);
      ACGPU_CHECK(scan.is_ok(), scan.status().to_string());
      ACGPU_CHECK(!scan.value().overflowed,
                  "match buffer overflowed; re-run with a CPU matcher");
      count = scan.value().matches.size();
      if (!trace_path.empty()) {
        // One Chrome process per file so sequential scans don't overprint.
        pipeline::add_scan_to_trace(chrome, scan.value(), "device: " + path);
      }
      matches = std::move(scan.value().matches);
    } else {
      ACGPU_CHECK(false, "unknown --matcher '" << matcher
                             << "' (serial|parallel|compressed|gpu)");
    }
    const double seconds = clock.seconds();
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.1f",
                  static_cast<double>(text.size()) / seconds / 1e6);
    table.add_row({path, format_bytes(text.size()), std::to_string(count),
                   format_seconds(seconds), rate});
    if (!quiet && matcher == "gpu") {
      for (const ac::Match& m : matches) {
        if (&m - matches.data() >= 10) {
          std::printf("  ... (%zu more)\n", matches.size() - 10);
          break;
        }
        const std::uint32_t len = dfa.pattern_length(m.pattern);
        std::printf("  %s:%llu: pattern %d (len %u)\n", path.c_str(),
                    static_cast<unsigned long long>(m.end + 1 - len), m.pattern, len);
      }
    }
  }
  table.print(std::cout);
  if (!trace_path.empty()) {
    chrome.add_tracer(tracer);
    std::ofstream out(trace_path);
    ACGPU_CHECK(static_cast<bool>(out), "cannot write '" << trace_path << "'");
    chrome.write(out);
    std::printf("wrote %s (open in Perfetto or chrome://tracing)\n",
                trace_path.c_str());
  }
  if (want_stats) registry.snapshot().write_table(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "acgpu command line: compile dictionaries, scan files.\n"
      "usage: acgpu_cli <compile|scan|selftest> [flags] [files...]");
  args.add_flag("patterns", "pattern file (one per line, # comments)", "");
  args.add_flag("dict", "compiled dictionary (.acdfa) to load", "");
  args.add_flag("out", "output path for compile", "");
  args.add_flag("matcher", "scan engine: serial|parallel|compressed|gpu", "serial");
  args.add_flag("streams", "gpu matcher: pipeline streams (>= 2 overlaps)", "2");
  args.add_flag("batch", "gpu matcher: owned bytes per pipeline batch", "4MB");
  args.add_flag("chunk-bytes",
                "gpu matcher: stream each file through the session service "
                "in feeds of this size (0 = one-shot scan)", "0");
  args.add_flag("trace", "gpu matcher: write a Chrome trace of the scans here", "");
  args.add_bool_flag("stats", "gpu matcher: print the telemetry metrics table");
  args.add_bool_flag("count-only", "suppress per-match output");
  try {
    if (!args.parse(argc, argv)) return 0;
    const auto& pos = args.positional();
    ACGPU_CHECK(!pos.empty(), "missing command (compile|scan|selftest)");
    const std::string cmd = pos.front();
    if (cmd == "compile") return cmd_compile(args);
    if (cmd == "scan") {
      ACGPU_CHECK(pos.size() > 1, "scan needs at least one file");
      return cmd_scan(args, {pos.begin() + 1, pos.end()});
    }
    if (cmd == "selftest") {
      // Tiny end-to-end check usable in the field.
      const ac::Dfa dfa = ac::build_dfa(ac::PatternSet({"he", "she", "his", "hers"}));
      const auto matches = ac::find_all(dfa, "ushers");
      ACGPU_CHECK(matches.size() == 3, "selftest failed: got " << matches.size());
      std::puts("selftest ok");
      return 0;
    }
    ACGPU_CHECK(false, "unknown command '" << cmd << "'");
  } catch (const Error& e) {
    std::fprintf(stderr, "acgpu_cli: %s\n", e.what());
    return 2;
  }
  return 0;
}
