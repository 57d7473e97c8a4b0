// Reproduction of the paper's Table 1: execution time of FFT, Airshed and
// MRI on the simulated Fig. 4 testbed under processor load, network traffic
// and both, with randomly vs automatically selected nodes, plus the
// unloaded reference column — printed side by side with the paper's
// measurements, followed by the "slowdown roughly halved" analysis.
//
// Usage: bench_table1 [trials] [seed] [flags]
// Defaults: 25 trials, seed 1999, serial execution.
//   --threads N      run the grid on an N-worker pool (N < 0: one worker per
//                    hardware thread). Statistics are bit-identical to the
//                    serial run for every N (deterministic reduction).
//   --bench-json P   perf mode: time the grid serially and with the pool,
//                    verify the two produce identical statistics, and write
//                    a BENCH JSON record (wall clock, trials/sec, speedup,
//                    headline obs counters) to path P. Tables are skipped.
//   --metrics-json P, --chrome-trace P  write the obs metrics document /
//                    the Chrome trace of the run (bench/harness.hpp).
// With --csv, the machine-readable grid is appended after the tables.

#include <cstdio>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "exp/report.hpp"
#include "exp/table1.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace netsel::exp;
namespace bench = netsel::bench;

double time_grid(Table1Options opt, int threads,
                 std::vector<MeasuredRow>& out) {
  opt.threads = threads;
  const auto t0 = bench::Clock::now();
  out = run_table1(opt);
  return bench::seconds_since(t0);
}

bool same_cell(const MeasuredCell& x, const MeasuredCell& y) {
  return x.mean == y.mean && x.ci95 == y.ci95 && x.trials == y.trials &&
         x.failures == y.failures;
}

bool identical(const std::vector<MeasuredRow>& a,
               const std::vector<MeasuredRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].reference != b[r].reference) return false;
    for (std::size_t c = 0; c < 3; ++c)
      if (!same_cell(a[r].random_sel[c], b[r].random_sel[c]) ||
          !same_cell(a[r].auto_sel[c], b[r].auto_sel[c]))
        return false;
  }
  return true;
}

int bench_json(const Table1Options& opt, int threads, const char* path,
               const bench::ObsExport& obs_export) {
  unsigned hw = std::thread::hardware_concurrency();
  int pool_threads = threads != 0 ? threads : -1;
  int effective = pool_threads < 0 ? static_cast<int>(hw == 0 ? 1 : hw)
                                   : pool_threads;
  // 18 measured cells of opt.trials each + 3 single-trial references.
  const int total_trials = 18 * opt.trials + 3;

  // Perf mode always runs instrumented: the headline counters (cache hit
  // rate, pool steals, events/sec) ride along in the BENCH record. The obs
  // layer is observational by contract, so the timings stay honest.
  netsel::obs::set_enabled(true);
  netsel::obs::Registry::global().reset();

  std::fprintf(stderr, "bench_table1: %d trials/cell, seed %llu — serial...\n",
               opt.trials, static_cast<unsigned long long>(opt.seed));
  std::vector<MeasuredRow> serial_rows, par_rows;
  double serial_s = time_grid(opt, 0, serial_rows);
  std::fprintf(stderr, "  serial: %.2fs — now %d threads...\n", serial_s,
               effective);
  // Reset between runs so the exported metrics describe the parallel run
  // alone (otherwise pool counters would sit next to serial-run cache ones).
  netsel::obs::Registry::global().reset();
  double par_s = time_grid(opt, pool_threads, par_rows);
  bool same = identical(serial_rows, par_rows);
  double speedup = par_s > 0.0 ? serial_s / par_s : 0.0;
  std::fprintf(stderr, "  %d threads: %.2fs  speedup %.2fx  identical=%s\n",
               effective, par_s, speedup, same ? "true" : "false");

  const std::uint64_t row_hits = bench::counter("select.ctx.row_hits");
  const std::uint64_t row_misses = bench::counter("select.ctx.row_misses");
  const std::uint64_t sim_events = bench::counter("sim.events");

  bench::JsonWriter w(path, "table1");
  w.object("grid")
      .field("apps", 3)
      .field("measured_cells", 18)
      .field("references", 3)
      .field("trials_per_cell", opt.trials)
      .field("total_trials", total_trials)
      .field("seed", opt.seed)
      .end();
  w.object("serial", true)
      .field("seconds", serial_s, "%.4f")
      .field("trials_per_sec", serial_s > 0.0 ? total_trials / serial_s : 0.0,
             "%.2f")
      .end();
  w.object("parallel", true)
      .field("threads", effective)
      .field("seconds", par_s, "%.4f")
      .field("trials_per_sec", par_s > 0.0 ? total_trials / par_s : 0.0,
             "%.2f")
      .end();
  w.field("speedup", speedup, "%.3f").field("identical_stats", same);
  w.object("metrics")
      .field("ctx_row_hits", row_hits)
      .field("ctx_row_misses", row_misses)
      .field("ctx_row_hit_rate",
             row_hits + row_misses > 0
                 ? static_cast<double>(row_hits) /
                       static_cast<double>(row_hits + row_misses)
                 : 0.0,
             "%.4f")
      .field("pool_tasks_run", bench::counter("pool.tasks_run"))
      .field("pool_steals", bench::counter("pool.steals"))
      .field("sim_events", sim_events)
      .field("sim_events_per_sec",
             par_s > 0.0 ? static_cast<double>(sim_events) / par_s : 0.0,
             "%.0f")
      .end();
  if (w.close() != 0) return 1;
  netsel::api::register_service_metrics();
  if (!obs_export.write()) return 1;
  return same ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netsel::exp;
  Table1Options opt;
  opt.trials = 25;
  bool csv = false;
  const char* json_path = nullptr;
  bench::ObsExport obs_export;
  bench::Args args;
  args.positional("trials", &opt.trials, 1)
      .positional("seed", &opt.seed)
      .flag("--csv", &csv)
      .option("--threads", "N", &opt.threads)
      .option("--bench-json", "PATH", &json_path);
  obs_export.declare(args);
  args.parse(argc, argv);
  if (json_path) return bench_json(opt, opt.threads, json_path, obs_export);
  obs_export.enable();

  opt.verbose = true;
  std::printf(
      "== Table 1: performance with computation load and network traffic ==\n"
      "   (%d trials per cell, seed %llu, %s; paper values from PPoPP'99)\n\n",
      opt.trials, static_cast<unsigned long long>(opt.seed),
      opt.threads == 0 ? "serial" : "thread-pool");
  auto rows = run_table1(opt);
  std::printf("\n%s\n%s", format_table1(rows).c_str(),
              format_slowdown_summary(rows).c_str());
  if (csv) {
    std::fputs("\n-- csv --\n", stdout);
    std::fputs(table1_csv(rows).c_str(), stdout);
  }
  netsel::api::register_service_metrics();
  return obs_export.write() ? 0 : 1;
}
