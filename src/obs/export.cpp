#include "obs/export.hpp"

#include "obs/encode.hpp"
#include "obs/jobtrace.hpp"
#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace netsel::obs {

using detail::num;
using detail::quoted;

namespace {

void write_histogram_body(const Registry::HistogramView& h, std::ostream& os) {
  os << "{\"bounds\":[";
  for (std::size_t i = 0; i < h.bounds.size(); ++i)
    os << (i ? "," : "") << num(h.bounds[i]);
  os << "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i)
    os << (i ? "," : "") << h.counts[i];
  os << "],\"count\":" << h.count << ",\"sum\":" << num(h.sum)
     << ",\"min\":" << num(h.min) << ",\"max\":" << num(h.max) << "}";
}

}  // namespace

void write_text(const Registry& r, std::ostream& os) {
  auto counters = r.counters();
  auto gauges = r.gauges();
  auto hists = r.histograms();
  std::size_t width = 12;
  for (const auto& [name, v] : counters) width = std::max(width, name.size());
  for (const auto& [name, v] : gauges) width = std::max(width, name.size());
  for (const auto& h : hists) width = std::max(width, h.name.size());

  if (!counters.empty()) os << "== counters ==\n";
  for (const auto& [name, v] : counters) {
    os << "  " << name;
    os.width(static_cast<std::streamsize>(width - name.size() + 2));
    os << ' ' << v << "\n";
  }
  if (!gauges.empty()) os << "== gauges ==\n";
  for (const auto& [name, v] : gauges) {
    os << "  " << name;
    os.width(static_cast<std::streamsize>(width - name.size() + 2));
    os << ' ' << v << "\n";
  }
  if (!hists.empty()) os << "== histograms ==\n";
  for (const auto& h : hists) {
    os << "  " << h.name << "  count=" << h.count << " sum=" << h.sum
       << " min=" << h.min << " max=" << h.max
       << " mean=" << (h.count ? h.sum / static_cast<double>(h.count) : 0.0)
       << "\n";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      os << "    le ";
      if (i < h.bounds.size())
        os << h.bounds[i];
      else
        os << "+inf";
      os << ": " << h.counts[i] << "\n";
    }
  }
  os << "spans recorded: " << r.spans().size() << "\n";
}

std::string to_text(const Registry& r) {
  std::ostringstream os;
  write_text(r, os);
  return os.str();
}

void write_json_lines(const Registry& r, std::ostream& os) {
  for (const auto& [name, v] : r.counters())
    os << "{\"type\":\"counter\",\"name\":" << quoted(name)
       << ",\"value\":" << v << "}\n";
  for (const auto& [name, v] : r.gauges())
    os << "{\"type\":\"gauge\",\"name\":" << quoted(name)
       << ",\"value\":" << num(v) << "}\n";
  for (const auto& h : r.histograms()) {
    os << "{\"type\":\"histogram\",\"name\":" << quoted(h.name) << ",";
    std::ostringstream body;
    write_histogram_body(h, body);
    // Splice the histogram object's fields into this line's object.
    std::string b = body.str();
    os << b.substr(1, b.size() - 2) << "}\n";
  }
}

std::string to_json_lines(const Registry& r) {
  std::ostringstream os;
  write_json_lines(r, os);
  return os.str();
}

void write_json(const Registry& r, std::ostream& os) {
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : r.counters()) {
    os << (first ? "" : ",") << "\n    " << quoted(name) << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : r.gauges()) {
    os << (first ? "" : ",") << "\n    " << quoted(name) << ": " << num(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& h : r.histograms()) {
    os << (first ? "" : ",") << "\n    " << quoted(h.name) << ": ";
    write_histogram_body(h, os);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"spans\": " << r.spans().size()
     << "\n}\n";
}

std::string to_json(const Registry& r) {
  std::ostringstream os;
  write_json(r, os);
  return os.str();
}

namespace {

/// Emit the opening of the traceEvents array plus the registry's span
/// events; callers append further comma-prefixed events and close the array.
void write_chrome_trace_open(const Registry& r, std::ostream& os);

}  // namespace

void write_chrome_trace(const Registry& r, std::ostream& os,
                        const TimeSeriesRecorder* ts,
                        const JobTraceRecorder* jobs) {
  write_chrome_trace_open(r, os);
  if (ts) ts->write_chrome_counters(os);
  if (jobs) jobs->write_chrome_events(os);
  os << "\n]}\n";
}

void write_chrome_trace(const Registry& r, std::ostream& os) {
  write_chrome_trace_open(r, os);
  os << "\n]}\n";
}

namespace {

void write_chrome_trace_open(const Registry& r, std::ostream& os) {
  os << "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"netsel\"}}";
  for (const SpanRecord& s : r.spans()) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"name\":" << quoted(s.name) << ",\"cat\":" << quoted(s.cat)
       << ",\"ts\":" << num(s.ts_us) << ",\"dur\":" << num(s.dur_us)
       << ",\"args\":{";
    bool first = true;
    if (s.sim_begin >= 0.0) {
      os << "\"sim_begin_s\":" << num(s.sim_begin)
         << ",\"sim_end_s\":" << num(s.sim_end);
      first = false;
    }
    for (const auto& [k, v] : s.args) {
      os << (first ? "" : ",") << quoted(k) << ":" << quoted(v);
      first = false;
    }
    os << "}}";
  }
}

}  // namespace

std::string to_chrome_trace(const Registry& r) {
  std::ostringstream os;
  write_chrome_trace(r, os);
  return os.str();
}

}  // namespace netsel::obs
