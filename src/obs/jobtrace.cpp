#include "obs/jobtrace.hpp"

#include <ostream>
#include <stdexcept>

#include "obs/encode.hpp"
#include "obs/metrics.hpp"

namespace netsel::obs {

using detail::fnv1a;
using detail::fnv1a_double;
using detail::fnv1a_str;
using detail::num;
using detail::quoted;

namespace {

/// Non-finite span times render as -1, the open-span sentinel.
constexpr char kOpen[] = "-1";

struct TraceMetrics {
  Counter& traces;
  Counter& spans;
};

TraceMetrics& trace_metrics() {
  static TraceMetrics m{
      Registry::global().counter("obs.trace.traces"),
      Registry::global().counter("obs.trace.spans"),
  };
  return m;
}

}  // namespace

std::uint32_t JobTraceRecorder::begin(std::uint64_t trace_id,
                                      std::uint32_t parent, std::string name,
                                      double sim_begin) {
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    it = traces_.emplace(trace_id, std::vector<JobSpan>{}).first;
    trace_metrics().traces.inc();
  }
  std::vector<JobSpan>& spans = it->second;
  if (parent != JobSpan::kNoParent && parent >= spans.size())
    throw std::out_of_range("JobTraceRecorder: parent span out of range");
  JobSpan s;
  s.parent = parent;
  s.name = std::move(name);
  s.sim_begin = sim_begin;
  spans.push_back(std::move(s));
  ++span_count_;
  trace_metrics().spans.inc();
  return static_cast<std::uint32_t>(spans.size() - 1);
}

void JobTraceRecorder::end(std::uint64_t trace_id, std::uint32_t span,
                           double sim_end) {
  std::vector<JobSpan>& spans = traces_.at(trace_id);
  JobSpan& s = spans.at(span);
  s.sim_end = sim_end < s.sim_begin ? s.sim_begin : sim_end;
}

std::uint32_t JobTraceRecorder::span(std::uint64_t trace_id,
                                     std::uint32_t parent, std::string name,
                                     double sim_begin, double sim_end) {
  const std::uint32_t id = begin(trace_id, parent, std::move(name), sim_begin);
  end(trace_id, id, sim_end);
  return id;
}

void JobTraceRecorder::annotate(std::uint64_t trace_id, std::uint32_t span,
                                std::string key, std::string value) {
  traces_.at(trace_id).at(span).args.emplace_back(std::move(key),
                                                  std::move(value));
}

const std::vector<JobSpan>& JobTraceRecorder::trace(
    std::uint64_t trace_id) const {
  return traces_.at(trace_id);
}

std::uint64_t JobTraceRecorder::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [id, spans] : traces_) {
    h = fnv1a(h, id);
    h = fnv1a(h, spans.size());
    for (const JobSpan& s : spans) {
      h = fnv1a(h, s.parent);
      h = fnv1a_str(h, s.name);
      h = fnv1a_double(h, s.sim_begin);
      h = fnv1a_double(h, s.sim_end);
    }
  }
  return h;
}

void JobTraceRecorder::write_jsonl(std::ostream& os) const {
  for (const auto& [id, spans] : traces_) {
    os << "{\"job\":" << id << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const JobSpan& s = spans[i];
      os << (i ? "," : "") << "{\"id\":" << i << ",\"parent\":"
         << (s.parent == JobSpan::kNoParent
                 ? std::string("-1")
                 : std::to_string(s.parent))
         << ",\"name\":" << quoted(s.name)
         << ",\"sim_begin\":" << num(s.sim_begin, kOpen)
         << ",\"sim_end\":" << num(s.sim_end, kOpen);
      if (!s.args.empty()) {
        os << ",\"args\":{";
        for (std::size_t a = 0; a < s.args.size(); ++a)
          os << (a ? "," : "") << quoted(s.args[a].first) << ":"
             << quoted(s.args[a].second);
        os << "}";
      }
      os << "}";
    }
    os << "]}\n";
  }
}

void JobTraceRecorder::write_chrome_events(std::ostream& os) const {
  os << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"job traces (sim time)\"}}";
  for (const auto& [id, spans] : traces_) {
    os << ",\n{\"ph\":\"M\",\"pid\":3,\"tid\":" << id
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"job " << id
       << "\"}}";
    for (const JobSpan& s : spans) {
      const double begin = s.sim_begin < 0.0 ? 0.0 : s.sim_begin;
      const double end = s.sim_end < begin ? begin : s.sim_end;
      os << ",\n{\"ph\":\"X\",\"pid\":3,\"tid\":" << id
         << ",\"name\":" << quoted(s.name)
         << ",\"cat\":\"job\",\"ts\":" << num(begin * 1e6, kOpen)
         << ",\"dur\":" << num((end - begin) * 1e6, kOpen) << ",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : s.args) {
        os << (first ? "" : ",") << quoted(k) << ":" << quoted(v);
        first = false;
      }
      os << "}}";
    }
  }
}

}  // namespace netsel::obs
