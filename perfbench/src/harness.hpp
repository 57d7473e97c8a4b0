#pragma once
// Shared machinery of the netsel benchmark: the in-memory span tracer the
// traced run records around each layer call, the Workload interface the
// three workloads implement, and the pass loop that times them.
//
// Everything here sits outside the library: layers are timed from the
// outside, around calls to their public functions, and their work counts
// are read from the obs registry's existing counters.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// q in [0, 1], linear interpolation between closest ranks; 0 when empty.
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = top
  std::uint64_t op = 0;      ///< operation the span belongs to
};

/// Single-threaded span recorder. Spans stay in memory until write_json().
class Tracer {
 public:
  Tracer();
  void set_op(std::uint64_t op) { op_ = op; }
  std::int32_t begin(const char* name);
  void end(std::int32_t idx);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Seconds per span name: duration minus the part its direct children
  /// cover (children are nested and sequential on one thread).
  std::map<std::string, double> self_seconds() const;
  /// Durations in seconds of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Chrome trace_event JSON (one complete event per span).
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Span {
 public:
  Span(Tracer* t, const char* name)
      : t_(t), idx_(t ? t->begin(name) : -1) {}
  ~Span() {
    if (t_) t_->end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::int32_t idx_;
};

// ---------------------------------------------------------------------------
// Workloads and passes
// ---------------------------------------------------------------------------

/// Values of obs counters by name.
using Counts = std::map<std::string, std::uint64_t>;

/// One timed sweep over a workload, from a fresh setup().
struct Pass {
  Tracer* tracer = nullptr;  ///< null: untraced
  bool check = false;        ///< run the correctness checks in this pass
  std::uint64_t steps = 0;
  /// Operations completed inside the timed window (throughput numerator).
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wall seconds of the timed window (the untimed parts of a step —
  /// reseeding, checks, episode turnover — are excluded).
  double window_s = 0.0;
  std::vector<double> latency_ms;  ///< one per timed operation
  std::vector<double> cold_ms;     ///< first query on a fresh context
  /// Growth of the obs counters inside the timed window (traced pass).
  Counts window_counts;
  std::vector<std::string> errors;
};

/// Adds the growth of every obs counter over its lifetime to
/// pass.window_counts, when the pass is traced and `active`. Construct it
/// before the timed region starts and let it die after the region ends, so
/// its two registry reads stay outside the window.
class CountWindow {
 public:
  explicit CountWindow(Pass& pass, bool active = true);
  ~CountWindow();
  CountWindow(const CountWindow&) = delete;
  CountWindow& operator=(const CountWindow&) = delete;

 private:
  Pass& pass_;
  bool active_;
  Counts before_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the starting state from the seed: topology, snapshot seeding,
  /// context / scheduler construction. Timed as setup_s.
  virtual void setup() = 0;
  /// Run one step; add its timed part to pass.window_s.
  virtual void step(Pass& pass) = 0;
  /// True once the fixed, seed-determined prefix of steps has run: the
  /// deterministic quality figures and counts cover exactly that prefix.
  virtual bool prefix_done() const = 0;
  /// Mean fractional criterion score over the prefix.
  virtual double quality_mean() const = 0;
  /// Topology build seconds of the last setup().
  virtual double topo_build_s() const = 0;
  /// Workload-specific per-layer metrics after a traced pass.
  virtual void layer_metrics(const Pass& traced,
                             std::map<std::string, double>& out) const = 0;
};

/// Run `w` (already set up) until `seconds` have elapsed and the prefix is
/// done, or for exactly `max_steps` steps when nonzero. When `prefix` is
/// non-null, the counters a later change can claim exactly
/// (choosing-metrics §8) are copied into it as the prefix completes.
void run_pass(Workload& w, Pass& pass, double seconds, std::uint64_t max_steps,
              Counts* prefix);
/// Every obs counter, plus "select.busy_ns": the summed wall time of the
/// select.latency_s.* histograms (time spent inside the selectors).
Counts counter_snapshot();

}  // namespace perfbench
