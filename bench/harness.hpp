#pragma once
// Shared plumbing of the flag-driven benches (bench_table1, bench_scale,
// bench_churn, bench_service, bench_exact, bench_faults): the flag table,
// the obs artifact export, measurement helpers and the BENCH_*.json writer.
// Each bench keeps only its workload, its contracts and its tables.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace netsel::obs {
class TimeSeriesRecorder;
class JobTraceRecorder;
}  // namespace netsel::obs

namespace netsel::bench {

/// Exit status of a usage error (sysexits' EX_USAGE), apart from 1 (an
/// output could not be written) and 2 (a contract was violated).
inline constexpr int kUsageError = 64;

/// A bench's flag table. parse() rejects an unknown flag, a missing value, a
/// malformed or out-of-range number and an extra positional: it prints the
/// reason and the usage line to stderr and exits kUsageError before the
/// bench does any work. Flags and positionals may interleave; an option
/// takes the next argument as its value even when it starts with '-'.
class Args {
 public:
  using Target = std::variant<bool*, int*, std::uint64_t*, const char**>;
  static constexpr int kNoMin = std::numeric_limits<int>::min();

  /// An int target must be >= min; a std::uint64_t target is a seed.
  Args& positional(const char* name, Target v, int min = kNoMin) {
    positionals_.push_back({name, nullptr, v, min});
    return *this;
  }
  Args& option(const char* name, const char* metavar, Target v,
               int min = kNoMin) {
    options_.push_back({name, metavar, v, min});
    return *this;
  }
  Args& flag(const char* name, bool* v) {
    options_.push_back({name, nullptr, v, kNoMin});
    return *this;
  }

  void parse(int argc, char** argv);
  /// Report a usage error found after parse(), e.g. a cross-field check.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  struct Entry {
    std::string name;
    const char* metavar;  // null for a positional or a bool flag
    Target target;
    int min;
  };
  void assign(const Entry& e, const char* value) const;

  std::string prog_ = "bench";
  std::vector<Entry> positionals_, options_;
};

/// The obs artifacts a run can export: --metrics-json, --chrome-trace and
/// the telemetry recorders' --timeseries-json, --timeseries-csv and
/// --job-trace.
struct ObsExport {
  const char* metrics_json = nullptr;
  const char* chrome_trace = nullptr;
  const char* timeseries_json = nullptr;
  const char* timeseries_csv = nullptr;
  const char* job_trace = nullptr;

  /// Declare the flags; `telemetry` adds the three recorder flags.
  void declare(Args& args, bool telemetry = false);
  /// Turn the obs registry on when any artifact was requested, or `also`.
  void enable(bool also = false) const;
  /// Write every requested artifact (a recorder's only when it is given);
  /// false when a path could not be opened.
  bool write(const obs::TimeSeriesRecorder* ts = nullptr,
             const obs::JobTraceRecorder* jt = nullptr) const;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Value of the obs counter `name` (0 when never registered).
std::uint64_t counter(const char* name);

/// Resident-set high-water mark of this process in bytes (0 without
/// getrusage).
std::uint64_t peak_rss_bytes();

/// Streaming writer of one BENCH_*.json record that places commas and
/// indentation itself. A block is multi-line (one member per line) or
/// inline (`{ "a": 1, "b": 2 }`, and so is everything nested in it). Each
/// double carries its own printf format; a non-finite one is written as
/// null. The constructor opens the root object with the "benchmark" and
/// "hardware_threads" members every record starts with.
class JsonWriter {
 public:
  JsonWriter(const char* path, const char* benchmark);
  ~JsonWriter() {
    if (f_) std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// A null key opens an array element.
  JsonWriter& object(const char* key = nullptr, bool is_inline = false) {
    return open(key, '{', is_inline);
  }
  JsonWriter& array(const char* key) { return open(key, '[', false); }
  JsonWriter& end();

  JsonWriter& field(const char* key, const char* v);
  JsonWriter& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }
  JsonWriter& field(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonWriter& field(const char* key, double v, const char* fmt = "%.17g");
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& field(const char* key, T v) {
    return raw(key, std::to_string(v));
  }

  /// Close every open block and the file. Returns 0 ("wrote PATH"), or 1
  /// when the file could not be opened or written; every other call on an
  /// unopened writer is a no-op.
  int close();

 private:
  JsonWriter& raw(const char* key, const std::string& text);
  JsonWriter& open(const char* key, char bracket, bool is_inline);
  void separate(bool is_inline, std::size_t depth);

  struct Frame {
    char close;
    bool is_inline;
    bool empty;
  };
  std::FILE* f_ = nullptr;
  std::string path_;
  std::vector<Frame> stack_;
};

}  // namespace netsel::bench
