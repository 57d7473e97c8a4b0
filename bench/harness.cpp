#include "harness.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/export.hpp"
#include "obs/jobtrace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace netsel::bench {
namespace {

/// Write `fn(std::ostream&)` to `path` (null: nothing to do), reporting
/// "wrote PATH" or "cannot open PATH for writing"; false on the latter.
template <typename Fn>
bool write_artifact(const char* path, Fn&& fn) {
  if (!path) return true;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  fn(f);
  std::fprintf(stderr, "wrote %s\n", path);
  return true;
}

}  // namespace

void Args::fail(const std::string& message) const {
  std::string usage = "usage: " + prog_;
  for (const Entry& e : positionals_) usage += " [" + e.name + "]";
  for (const Entry& e : options_)
    usage += " [" + e.name + (e.metavar ? std::string(" ") + e.metavar : "") +
             "]";
  std::fprintf(stderr, "%s: %s\n%s\n", prog_.c_str(), message.c_str(),
               usage.c_str());
  std::exit(kUsageError);
}

void Args::assign(const Entry& e, const char* value) const {
  if (auto* str = std::get_if<const char**>(&e.target)) {
    **str = value;
    return;
  }
  const bool is_int = std::holds_alternative<int*>(e.target);
  char* end = nullptr;
  errno = 0;
  const long long i = is_int ? std::strtoll(value, &end, 10) : 0;
  const unsigned long long u = is_int ? 0 : std::strtoull(value, &end, 10);
  // strtoull would wrap a negative seed around: only an int takes a sign.
  const bool digit_first = *value >= '0' && *value <= '9';
  if (!(digit_first || (is_int && *value == '-')) || *end != '\0')
    fail(e.name + ": malformed number '" + value + "'");
  if (errno == ERANGE ||
      (is_int && (i < e.min || i > std::numeric_limits<int>::max())))
    fail(e.name + ": " + value + " is out of range" +
         (e.min != kNoMin ? " (must be >= " + std::to_string(e.min) + ")"
                          : ""));
  if (is_int)
    *std::get<int*>(e.target) = static_cast<int>(i);
  else
    *std::get<std::uint64_t*>(e.target) = static_cast<std::uint64_t>(u);
}

void Args::parse(int argc, char** argv) {
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    prog_ = slash ? slash + 1 : argv[0];
  }
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (next_positional == positionals_.size())
        fail("unexpected argument '" + arg + "'");
      assign(positionals_[next_positional++], argv[i]);
      continue;
    }
    const Entry* e = nullptr;
    for (const Entry& o : options_)
      if (o.name == arg) e = &o;
    if (!e) fail("unknown flag '" + arg + "'");
    if (auto* flag = std::get_if<bool*>(&e->target)) {
      **flag = true;
    } else {
      if (i + 1 == argc) fail(arg + ": missing value");
      assign(*e, argv[++i]);
    }
  }
}

void ObsExport::declare(Args& args, bool telemetry) {
  args.option("--metrics-json", "PATH", &metrics_json)
      .option("--chrome-trace", "PATH", &chrome_trace);
  if (telemetry)
    args.option("--timeseries-json", "PATH", &timeseries_json)
        .option("--timeseries-csv", "PATH", &timeseries_csv)
        .option("--job-trace", "PATH", &job_trace);
}

void ObsExport::enable(bool also) const {
  if (also || metrics_json || chrome_trace || timeseries_json ||
      timeseries_csv || job_trace)
    obs::set_enabled(true);
}

bool ObsExport::write(const obs::TimeSeriesRecorder* ts,
                      const obs::JobTraceRecorder* jt) const {
  const obs::Registry& reg = obs::Registry::global();
  bool ok = write_artifact(metrics_json,
                           [&](std::ostream& f) { obs::write_json(reg, f); });
  ok &= write_artifact(chrome_trace, [&](std::ostream& f) {
    obs::write_chrome_trace(reg, f, ts, jt);
  });
  if (ts) {
    ok &= write_artifact(timeseries_json,
                         [&](std::ostream& f) { ts->write_json(f); });
    ok &= write_artifact(timeseries_csv,
                         [&](std::ostream& f) { ts->write_csv(f); });
  }
  if (jt)
    ok &= write_artifact(job_trace,
                         [&](std::ostream& f) { jt->write_jsonl(f); });
  return ok;
}

std::uint64_t counter(const char* name) {
  for (const auto& [n, v] : obs::Registry::global().counters())
    if (n == name) return v;
  return 0;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#endif
  }
#endif
  return 0;
}

JsonWriter::JsonWriter(const char* path, const char* benchmark)
    : f_(std::fopen(path, "w")), path_(path) {
  if (!f_) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fputc('{', f_);
  stack_.push_back({'}', false, true});
  field("benchmark", benchmark);
  field("hardware_threads", std::thread::hardware_concurrency());
}

void JsonWriter::separate(bool is_inline, std::size_t depth) {
  if (is_inline)
    std::fputc(' ', f_);
  else
    std::fprintf(f_, "\n%*s", static_cast<int>(2 * depth), "");
}

JsonWriter& JsonWriter::raw(const char* key, const std::string& text) {
  if (!f_) return *this;
  Frame& top = stack_.back();
  if (!top.empty) std::fputc(',', f_);
  top.empty = false;
  separate(top.is_inline, stack_.size());
  if (key) std::fprintf(f_, "\"%s\": ", key);
  std::fputs(text.c_str(), f_);
  return *this;
}

JsonWriter& JsonWriter::open(const char* key, char bracket, bool is_inline) {
  if (!f_) return *this;
  raw(key, std::string(1, bracket));
  const bool nested_inline = is_inline || stack_.back().is_inline;
  stack_.push_back({bracket == '{' ? '}' : ']', nested_inline, true});
  return *this;
}

JsonWriter& JsonWriter::end() {
  if (!f_ || stack_.empty()) return *this;
  const Frame top = stack_.back();
  stack_.pop_back();
  if (!top.empty) separate(top.is_inline, stack_.size());
  std::fputc(top.close, f_);
  return *this;
}

JsonWriter& JsonWriter::field(const char* key, const char* v) {
  std::string quoted = "\"";
  for (const char* c = v; *c; ++c) {
    if (*c == '"' || *c == '\\') quoted += '\\';
    quoted += *c;
  }
  return raw(key, quoted + '"');
}

JsonWriter& JsonWriter::field(const char* key, double v, const char* fmt) {
  if (!std::isfinite(v)) return raw(key, "null");
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return raw(key, buf);
}

int JsonWriter::close() {
  if (!f_) return 1;
  while (!stack_.empty()) end();
  std::fputc('\n', f_);
  const bool ok = std::ferror(f_) == 0;
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  std::fprintf(stderr, ok && closed ? "wrote %s\n" : "cannot write %s\n",
               path_.c_str());
  return ok && closed ? 0 : 1;
}

}  // namespace netsel::bench
