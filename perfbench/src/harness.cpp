#include "harness.hpp"

#include <fstream>

#include <sys/resource.h>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

/// The counters a later change can claim exactly, with their values.
Counts deterministic_counts() {
  Counts out = {{"select.ctx.delta.applied", 0}, {"select.ctx.rows.repaired", 0},
                {"select.selections", 0},        {"select.prune.dropped", 0},
                {"sched.place.conflicts", 0},    {"api.reselect.migrations", 0}};
  for (const auto& [n, v] : netsel::obs::Registry::global().counters())
    if (out.count(n)) out[n] = v;
  return out;
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : netsel::util::percentile(std::move(xs), q * 100.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

Tracer::Tracer() : t0_(Clock::now()) {}

std::int32_t Tracer::begin(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.op = op_;
  rec.start_s = seconds_since(t0_);
  spans_.push_back(rec);
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::end(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_s = seconds_since(t0_);
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
      << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << ",\"args\":{\"op\":"
      << s.op << ",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void run_pass(Workload& w, Pass& pass, double seconds, std::uint64_t max_steps,
              Counts* prefix) {
  const auto t0 = Clock::now();
  bool captured = false;
  for (;;) {
    if (max_steps > 0 ? pass.steps >= max_steps
                      : seconds_since(t0) >= seconds && w.prefix_done())
      break;
    if (pass.tracer) pass.tracer->set_op(pass.steps);
    w.step(pass);
    ++pass.steps;
    if (prefix && !captured && w.prefix_done()) {
      *prefix = deterministic_counts();
      captured = true;
    }
  }
}

Counts counter_snapshot() {
  const auto& reg = netsel::obs::Registry::global();
  Counts out;
  for (const auto& [n, v] : reg.counters()) out[n] = v;
  double busy = 0.0;
  for (const auto& h : reg.histograms())
    if (h.name.rfind("select.latency_s.", 0) == 0) busy += h.sum;
  out["select.busy_ns"] = static_cast<std::uint64_t>(busy * 1e9);
  return out;
}

CountWindow::CountWindow(Pass& pass, bool active)
    : pass_(pass), active_(active && pass.tracer) {
  if (active_) before_ = counter_snapshot();
}

CountWindow::~CountWindow() {
  if (!active_) return;
  for (const auto& [n, v] : counter_snapshot()) {
    const auto it = before_.find(n);
    pass_.window_counts[n] += v - (it == before_.end() ? 0 : it->second);
  }
}

}  // namespace perfbench
