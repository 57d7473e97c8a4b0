// netsel_perfbench: the benchmark binary behind perfbench/run.py.
//
//   netsel_perfbench --workload service|query|churn --seed N --seconds S
//                    --trace 0|1 [--out DIR]
//
// --trace 0 sets the workload up seven times (setup_s is the median), runs
// it for S seconds with the correctness checks on, and prints the
// end-to-end metrics. --trace 1 prints the per-layer metrics instead: an
// untraced checked pass of S/2 seconds, then the same steps again from a
// fresh setup with the obs registry on and spans recorded around each
// layer call (the difference is obs.trace_overhead_frac), then the
// deterministic prefix once more to confirm its counts repeat. The spans
// are written to DIR/trace-<workload>-<seed>.json.
//
// The first line of stdout names the build ("build {...}"); the last is
// one JSON object: correct, attempted, failed and metrics. Exit status: 0 when every check passed, 1 when one failed,
// 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

bool same_result(const netsel::select::SelectionResult& a,
                 const netsel::select::SelectionResult& b) {
  return a.feasible == b.feasible && a.nodes == b.nodes &&
         a.min_cpu == b.min_cpu && a.min_bw_fraction == b.min_bw_fraction &&
         a.objective == b.objective && a.iterations == b.iterations;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_ops_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},    {"cold_p50_ms", "ms"},
      {"quality_mean", "ratio"},   {"setup_s", "s"},
      {"peak_rss_mb", "MiB"}};
  return specs;
}

/// Every per-layer metric, reported on every workload (0 where the layer
/// does no work on that workload).
const std::vector<MetricSpec>& per_layer() {
  static const std::vector<MetricSpec> specs = {
      {"topo.build_s", "s"},
      {"remos.write_us_per_delta", "us"},
      {"remos.deltas_per_op", "count"},
      {"select.catchup_ms", "ms"},
      {"select.rows_repaired_per_delta", "count"},
      {"select.deltas_applied_per_op", "count"},
      {"select.rows_repaired_per_op", "count"},
      {"select.query_ms.max_compute", "ms"},
      {"select.query_ms.max_bandwidth", "ms"},
      {"select.query_ms.balanced", "ms"},
      {"select.cold_query_ms", "ms"},
      {"select.row_builds_per_op", "count"},
      {"select.row_hit_rate", "ratio"},
      {"select.prune_dropped_per_selection", "count"},
      {"select.selections_per_op", "count"},
      {"select.busy_ms_per_op", "ms"},
      {"select.evaluate_ms", "ms"},
      {"api.reselect_ms", "ms"},
      {"api.reselect.migrations_per_call", "count"},
      {"sched.slice_ms", "ms"},
      {"sched.conflicts_per_placement", "count"},
      {"sched.place_useful_ratio", "ratio"},
      {"sched.rebalance_per_placement", "count"},
      {"sched.lane_speedup", "ratio"},
      {"sched.queue_wait_p50_s", "s"},
      {"util.pool.tasks_per_op", "count"},
      {"util.pool.steals_per_op", "count"},
      {"self_ms_per_op.sched", "ms"},
      {"self_ms_per_op.select", "ms"},
      {"self_ms_per_op.api", "ms"},
      {"self_ms_per_op.remos", "ms"},
      {"self_ms_per_op.bench", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
      {"trace.unaccounted_frac", "ratio"},
      {"count.select.ctx.delta.applied", "count"},
      {"count.select.ctx.rows.repaired", "count"},
      {"count.select.selections", "count"},
      {"count.select.prune.dropped", "count"},
      {"count.sched.place.conflicts", "count"},
      {"count.api.reselect.migrations", "count"},
      {"counts.repeat_exactly", "count"}};
  return specs;
}

/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 7;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The layer a span belongs to: its name up to the first dot.
std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<MetricSpec>& specs,
                const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double v = values.at(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", specs[i].name, std::isfinite(v) ? v : 0.0,
                specs[i].unit);
  }
  std::printf("}}\n");
}

/// Per-layer metrics of a traced pass that every workload shares: work
/// ratios from the obs counters grown inside the window, and per-layer
/// self time from the spans.
void common_layer_metrics(const Pass& p, std::map<std::string, double>& out) {
  auto c = [&p](const char* name) {
    const auto it = p.window_counts.find(name);
    return it == p.window_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(p.ops);
  out["select.rows_repaired_per_delta"] =
      ratio(c("select.ctx.rows.repaired"), c("select.ctx.delta.applied"));
  out["select.deltas_applied_per_op"] = ratio(c("select.ctx.delta.applied"), ops);
  out["select.rows_repaired_per_op"] = ratio(c("select.ctx.rows.repaired"), ops);
  out["select.row_builds_per_op"] = ratio(c("select.ctx.row_misses"), ops);
  out["select.row_hit_rate"] =
      ratio(c("select.ctx.row_hits"),
            c("select.ctx.row_hits") + c("select.ctx.row_misses"));
  out["select.prune_dropped_per_selection"] =
      ratio(c("select.prune.dropped"), c("select.selections"));
  out["select.selections_per_op"] = ratio(c("select.selections"), ops);
  out["select.busy_ms_per_op"] = ratio(c("select.busy_ns") * 1e-6, ops);
  out["api.reselect.migrations_per_call"] =
      ratio(c("api.reselect.migrations"), c("api.reselect.calls"));

  double self_total = 0.0;
  std::map<std::string, double> by_layer;
  for (const auto& [name, secs] : p.tracer->self_seconds()) {
    by_layer[layer_of(name)] += secs;
    self_total += secs;
  }
  for (const char* layer : {"sched", "select", "api", "remos", "bench"})
    out[std::string("self_ms_per_op.") + layer] = ratio(by_layer[layer] * 1e3, ops);
  out["trace.unaccounted_frac"] = ratio(p.window_s - self_total, p.window_s);
}

/// Compiler, flags and build type, baked in by CMakeLists.txt; run.py
/// folds this line into the run's fingerprint.
void print_build_line() {
  auto esc = [](std::string v) {
    std::string out;
    for (char ch : v) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out;
  };
  std::printf("build {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\"}\n",
              esc(PERFBENCH_COMPILER).c_str(), esc(PERFBENCH_BUILD_TYPE).c_str(),
              esc(PERFBENCH_CXX_FLAGS).c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: netsel_perfbench --workload service|query|churn "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val.c_str());
    else if (key == "--trace") trace = val == "1";
    else if (key == "--out") out_dir = val;
    else return usage();
  }
  if (argc % 2 == 0 || !(seconds > 0.0)) return usage();

  const int threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  std::unique_ptr<Workload> w;
  if (workload == "service") w = make_service(seed, threads);
  else if (workload == "query") w = make_query(seed);
  else if (workload == "churn") w = make_churn(seed);
  else return usage();

  print_build_line();
  netsel::obs::set_enabled(false);
  std::vector<double> setup_s, topo_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
    topo_s.push_back(w->topo_build_s());
  }

  Pass primary;
  primary.check = true;
  std::map<std::string, double> values;
  std::vector<MetricSpec> specs;
  bool correct = true;
  if (!trace) {
    run_pass(*w, primary, seconds, 0, nullptr);
    values["throughput_ops_s"] = ratio(static_cast<double>(primary.ops), primary.window_s);
    values["latency_p50_ms"] = percentile(primary.latency_ms, 0.50);
    values["latency_p95_ms"] = percentile(primary.latency_ms, 0.95);
    values["cold_p50_ms"] = median(primary.cold_ms);
    values["quality_mean"] = w->quality_mean();
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = peak_rss_mb();
    specs = end_to_end();
    std::fprintf(stderr,
                 "%s seed %llu: %llu ops in %.3f s timed (%llu steps), "
                 "%zu latency samples, %zu cold samples\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(primary.ops), primary.window_s,
                 static_cast<unsigned long long>(primary.steps),
                 primary.latency_ms.size(), primary.cold_ms.size());
  } else {
    run_pass(*w, primary, seconds / 2.0, 0, nullptr);

    w->setup();
    netsel::obs::Registry::global().reset();
    netsel::obs::set_enabled(true);
    Tracer tracer;
    Pass traced;
    traced.tracer = &tracer;
    Counts first;
    run_pass(*w, traced, 0.0, primary.steps, &first);
    for (const MetricSpec& s : per_layer()) values[s.name] = 0.0;
    common_layer_metrics(traced, values);
    w->layer_metrics(traced, values);
    values["topo.build_s"] = median(topo_s);
    values["obs.trace_overhead_frac"] = traced.window_s / primary.window_s - 1.0;

    // The deterministic prefix once more: its counts must repeat exactly.
    w->setup();
    netsel::obs::Registry::global().reset();
    Pass again;
    Counts second;
    run_pass(*w, again, 0.0, 0, &second);
    netsel::obs::set_enabled(false);
    for (const auto& [name, v] : first) values["count." + name] = static_cast<double>(v);
    values["counts.repeat_exactly"] = first == second ? 1.0 : 0.0;
    if (first != second)
      for (const auto& [name, v] : first)
        if (second[name] != v)
          std::fprintf(stderr, "FLAG: count %s differs between two runs of "
                       "the prefix: %llu vs %llu\n", name.c_str(),
                       static_cast<unsigned long long>(v),
                       static_cast<unsigned long long>(second[name]));

    for (const Pass* p : {&traced, &again})
      primary.errors.insert(primary.errors.end(), p->errors.begin(), p->errors.end());
    const double unaccounted = values["trace.unaccounted_frac"];
    if (std::fabs(unaccounted) > 0.05)
      primary.errors.push_back("layer self times miss the traced wall by " +
                               std::to_string(unaccounted * 100.0) + "%");
    if (values.size() != per_layer().size())
      primary.errors.push_back("a workload produced an undeclared metric");
    specs = per_layer();

    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/trace-" + workload + "-" +
                             std::to_string(seed) + ".json";
    if (!tracer.write_json(path)) primary.errors.push_back("cannot write " + path);
    std::fprintf(stderr, "%s seed %llu: traced %llu steps, %zu spans -> %s\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(traced.steps),
                 tracer.spans().size(), path.c_str());
  }
  for (const std::string& e : primary.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    correct = false;
  }
  if (primary.attempted == 0) {
    std::fprintf(stderr, "CHECK FAILED: no operation completed\n");
    correct = false;
  }
  print_json(correct, primary.attempted, primary.failed, specs, values);
  return correct ? 0 : 1;
}
