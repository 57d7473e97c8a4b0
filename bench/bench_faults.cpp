// Measurement-fault sweep: execution time of the Table-1 FFT workload
// under load + traffic when the Remos measurement plane itself degrades —
// dropped sweeps, per-sensor outages, measurement noise and late sweeps at
// increasing severity — with automatically vs randomly selected nodes.
// Auto policies select through NodeSelectionService, so the degradation
// ladder (full -> smoothed -> prior) is exercised and counted per cell.
//
// Usage: bench_faults [trials] [seed] [flags]
// Defaults: 12 trials, seed 2031, serial execution.
//   --threads N  run the grid on an N-worker pool (N < 0: one worker per
//                hardware thread); statistics are bit-identical for any N.
//   --check      verify the no-fault contract and exit non-zero on
//                violation: at severity 0 every auto trial must reproduce
//                run_trial's elapsed time bit-for-bit (the service path
//                changes nothing), and no cell may have lost trials to a
//                thrown selection. Used as the CI smoke step.
//   --csv        append the machine-readable grid after the table.
//   --metrics-json P, --chrome-trace P  write the obs metrics document
//                     (with the remos.* and api.degradation metrics the
//                     Table-1 grid never touches) / the Chrome trace.

#include <cstdio>
#include <string>

#include "api/service.hpp"
#include "exp/faults.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace netsel::exp;

  FaultGridOptions opt;
  bool csv = false;
  bool check = false;
  netsel::bench::ObsExport obs_export;
  netsel::bench::Args args;
  args.positional("trials", &opt.trials, 1)
      .positional("seed", &opt.seed)
      .flag("--csv", &csv)
      .option("--threads", "N", &opt.threads)
      .flag("--check", &check);
  obs_export.declare(args);
  args.parse(argc, argv);
  opt.verbose = true;
  obs_export.enable();

  auto rows = run_fault_grid(opt);
  std::printf("%s\n", format_fault_grid(rows, opt).c_str());
  if (csv) std::printf("%s", fault_grid_csv(rows, opt).c_str());
  netsel::api::register_service_metrics();
  if (!obs_export.write()) return 1;

  if (check) {
    // No-fault contract: the severity-0 row must be the unperturbed
    // measurement path. Re-derive one auto cell through run_trial (the
    // historical entry point) and require bit-equality, and require that no
    // selection threw anywhere in the grid.
    int rc = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].severity != 0.0) continue;
      const Scenario sc = table1_scenario(true, true);
      std::uint64_t s0 = cell_seed(opt.seed, opt.app.name,
                                   Policy::AutoBalanced, 1000 + static_cast<int>(r));
      for (int t = 0; t < opt.trials; ++t) {
        double direct =
            run_trial(opt.app, sc, Policy::AutoBalanced, trial_seed(s0, t))
                .elapsed;
        double via_service =
            run_fault_trial(opt.app, sc, Policy::AutoBalanced, 0.0,
                            trial_seed(s0, t))
                .elapsed;
        if (direct != via_service) {
          std::fprintf(stderr,
                       "CHECK FAILED: severity-0 trial %d: run_trial %.17g != "
                       "fault-path %.17g\n",
                       t, direct, via_service);
          rc = 2;
        }
      }
    }
    for (const FaultRow& row : rows) {
      auto cell_ok = [&](const FaultCell& c, const char* what) {
        // Trials may legitimately fail (max_sim_time pathology) but a
        // selection that *throws* on missing measurements is a bug; those
        // failure notes name the selection stage.
        for (const std::string& note : c.cell.failure_notes) {
          if (note.find("infeasible") != std::string::npos) {
            std::fprintf(stderr,
                         "CHECK FAILED: severity %.2f %s: selection failed "
                         "under faults: %s\n",
                         row.severity, what, note.c_str());
            rc = 2;
          }
        }
      };
      cell_ok(row.random, "random");
      for (const FaultCell& c : row.autos) cell_ok(c, "auto");
    }
    std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
    return rc;
  }
  return 0;
}
