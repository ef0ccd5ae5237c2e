// telemetry::Logger — severity-filtered, rate-limited diagnostics.
//
// Library code used to print straight to stderr (a one-time warning guarded
// itself with a process-global static). That pattern cannot be tested,
// silenced, or redirected, and it rate-limits per *process*, not per
// logger. The Logger replaces it: every diagnostic goes through
// log(severity, key, message), where `key` names the event class
// ("cluster.postmortem_path", "cluster.shard_failed") and the per-key
// budget decides whether the message reaches the sink or is counted as
// suppressed. A null Logger* in options structs falls back to
// Logger::global() (stderr), so default behavior still surfaces warnings —
// once per key, exactly like the old static guard — while tests and
// embedders install their own sink.
//
// Rate limiting: each key may emit `burst` messages per window. window_ns=0
// (the default) means one window for the logger's lifetime — i.e. the first
// `burst` occurrences print, the rest are counted. A finite window re-arms
// the key when it elapses, and the first message of the new window reports
// how many were suppressed meanwhile. The clock is injectable for tests.
//
// Thread-safety: log() takes the logger mutex (diagnostics are not a hot
// path — the hot paths emit metrics and flight-recorder events instead).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace acgpu::telemetry {

enum class LogSeverity : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* to_string(LogSeverity severity);

/// Receives every emitted (non-suppressed) message.
using LogSink =
    std::function<void(LogSeverity, std::string_view key, std::string_view message)>;

struct LoggerOptions {
  /// Messages below this severity are dropped (not counted as suppressed).
  LogSeverity min_severity = LogSeverity::kInfo;
  /// Messages a key may emit per window before suppression kicks in.
  std::uint32_t burst = 1;
  /// Rate window in nanoseconds; 0 = never re-arms (once-per-lifetime keys,
  /// the drop-in replacement for the old static one-time guards).
  std::uint64_t window_ns = 0;
  /// Null = the default stderr sink ("[warn] key: message").
  LogSink sink;
  /// Test seam: monotonic-nanosecond source. Null = acgpu::now_ns.
  std::function<std::uint64_t()> clock;
};

struct LoggerStats {
  std::uint64_t emitted = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t filtered = 0;  ///< below min_severity
};

class Logger {
 public:
  explicit Logger(LoggerOptions options = {});

  /// Emits (or suppresses) one message under `key`'s rate budget. `key`
  /// follows the dotted metric naming scheme by convention.
  void log(LogSeverity severity, std::string_view key, std::string_view message);

  void debug(std::string_view key, std::string_view message) {
    log(LogSeverity::kDebug, key, message);
  }
  void info(std::string_view key, std::string_view message) {
    log(LogSeverity::kInfo, key, message);
  }
  void warn(std::string_view key, std::string_view message) {
    log(LogSeverity::kWarn, key, message);
  }
  void error(std::string_view key, std::string_view message) {
    log(LogSeverity::kError, key, message);
  }

  LoggerStats stats() const;
  /// Messages suppressed under `key` so far (across all windows).
  std::uint64_t suppressed(std::string_view key) const;

  /// The process-wide default logger (stderr, burst 1, lifetime window).
  /// Library code takes a Logger* (null = global()) rather than reaching
  /// for this directly.
  static Logger& global();

 private:
  struct KeyState {
    std::uint64_t window_start_ns = 0;
    std::uint32_t emitted_in_window = 0;
    std::uint64_t suppressed_in_window = 0;
    std::uint64_t suppressed_total = 0;
  };

  LoggerOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, KeyState, std::less<>> keys_;
  LoggerStats stats_;
};

}  // namespace acgpu::telemetry
