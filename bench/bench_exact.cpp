// Optimality-gap certification bench: scores every greedy selector against
// the exact branch-and-bound selector (select/bnb.hpp) on the paper-scale
// synthetic families — family x m in {4,8,16,32,64} x criterion, plus the
// fixed-constraint x prioritization block the paper only sketches — and
// emits the measured gap table. Each cell carries a sound bracket
// greedy <= optimum <= bound and is marked `exact` (the budgeted search
// proved optimality) or with its stop reason (`node_budget`, ...), never
// silently truncated. Deterministic: node budgets only, seeded load,
// serial search — the emitted values are bit-identical across machines,
// so CI gates on them (scripts/check_bench_regression.py, "exact").
//
// Usage: bench_exact [--seed S] [--hosts N] [--budget N] [flags]
// Defaults: seed 7177, 120 hosts per family, 20000 expansions per cell.
//   --check      fast contract smoke for CI: a reduced grid (24 hosts,
//                m in {2,4}) must be sound in every cell (incumbent and
//                greedy never above the bound, certified cells closed),
//                and the B&B must reproduce the brute-force oracle
//                bit-exactly on the small fat-tree at every criterion.
//                Exits non-zero on violation.
//   --csv        append the machine-readable grid after the table.
//   --bench-json P    write the gap record (cells + headline) to P.
//   --no-constraints  skip the fixed-constraint x prioritization block.
//   --metrics-json P, --chrome-trace P  write the obs metrics document (the
//                     select.bnb.* counters, select.latency_s.bnb) / the
//                     Chrome trace of the run (bench/harness.hpp).

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "exp/exact.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "remos/snapshot.hpp"
#include "select/bnb.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "topo/synthetic.hpp"

namespace {

namespace bench = netsel::bench;
using netsel::exp::ExactCell;
using netsel::exp::ExactGridOptions;

/// Soundness of one cell: nothing ever exceeds the certified bound, and a
/// certified cell is closed (incumbent == bound).
bool cell_sound(const ExactCell& c) {
  if (c.exact_feasible && !(c.exact_value <= c.upper_bound)) return false;
  if (c.greedy_feasible && std::isfinite(c.greedy_value) &&
      !(c.greedy_value <= c.upper_bound))
    return false;
  if (c.certified && c.exact_feasible && c.exact_value != c.upper_bound)
    return false;
  return true;
}

struct Headline {
  std::size_t cells = 0;
  std::size_t exact_cells = 0;
  std::size_t bounded_cells = 0;
  bool sound = true;
  double worst_greedy_ratio = std::numeric_limits<double>::infinity();
  double mean_greedy_ratio = 0.0;
};

Headline summarize(const std::vector<ExactCell>& cells) {
  Headline h;
  h.cells = cells.size();
  std::size_t rated = 0;
  double sum = 0.0;
  for (const ExactCell& c : cells) {
    if (!cell_sound(c)) h.sound = false;
    if (c.certified)
      ++h.exact_cells;
    else
      ++h.bounded_cells;
    const double r = c.greedy_ratio();
    if (!std::isnan(r)) {
      h.worst_greedy_ratio = std::min(h.worst_greedy_ratio, r);
      sum += r;
      ++rated;
    }
  }
  if (rated > 0) h.mean_greedy_ratio = sum / static_cast<double>(rated);
  if (rated == 0) h.worst_greedy_ratio = 0.0;
  return h;
}

int write_bench_json(const char* path, const ExactGridOptions& opt,
                     const std::vector<ExactCell>& cells,
                     const Headline& h) {
  // Non-finite values (an infeasible greedy, an unbounded bracket) are
  // written as null, which the regression tooling's json.load accepts.
  bench::JsonWriter w(path, "exact");
  w.field("seed", opt.seed)
      .field("hosts", opt.hosts)
      .field("node_budget", opt.node_budget)
      .array("cells");
  for (const ExactCell& c : cells)
    w.object(nullptr, true)
        .field("family", c.family)
        .field("variant", c.variant)
        .field("criterion", netsel::select::criterion_name(c.criterion))
        .field("m", c.m)
        .field("pool", c.pool)
        .field("greedy_feasible", c.greedy_feasible)
        .field("greedy_value", c.greedy_value)
        .field("exact_value", c.exact_value)
        .field("upper_bound", c.upper_bound)
        .field("greedy_ratio", c.greedy_ratio())
        .field("certified", c.certified)
        .field("stop", c.stop)
        .field("expanded", c.expanded)
        .field("seconds", c.seconds, "%.4f")
        .end();
  w.end();
  w.object("headline")
      .field("contract",
             "every family x m x criterion cell carries a sound bracket "
             "greedy <= optimum <= bound; certified cells are bit-exact "
             "brute-force optima")
      .field("cells", h.cells)
      .field("exact_cells", h.exact_cells)
      .field("bounded_cells", h.bounded_cells)
      .field("sound", h.sound)
      .field("worst_greedy_ratio", h.worst_greedy_ratio)
      .field("mean_greedy_ratio", h.mean_greedy_ratio)
      .end();
  w.object("metrics")
      .field("bnb_selections", bench::counter("select.bnb.selections"))
      .field("bnb_expanded", bench::counter("select.bnb.expanded"))
      .field("bnb_pruned_bound", bench::counter("select.bnb.pruned_bound"))
      .field("bnb_pruned_lex", bench::counter("select.bnb.pruned_lex"))
      .field("bnb_certified", bench::counter("select.bnb.certified"))
      .field("bnb_budget_hits", bench::counter("select.bnb.budget_hits"))
      .end();
  return w.close();
}

/// --check oracle leg: B&B vs brute force on an oracle-reachable fat tree.
int check_oracle(std::uint64_t seed) {
  namespace sel = netsel::select;
  auto ft = netsel::topo::fat_tree_for_hosts(24, 6, 2.0, seed);
  ft.cpu_jitter = 0.3;
  auto g = netsel::topo::fat_tree(ft);
  netsel::remos::NetworkSnapshot snap(g);
  netsel::remos::apply_synthetic_load(snap, seed * 31 + 7);
  sel::SelectionContext ctx(snap);
  int rc = 0;
  for (int m : {2, 4}) {
    sel::SelectionOptions opt;
    opt.num_nodes = m;
    opt.exact.node_budget = 0;
    for (sel::Criterion c :
         {sel::Criterion::MaxCompute, sel::Criterion::MaxBandwidth,
          sel::Criterion::Balanced}) {
      const auto bf = sel::brute_force_select(ctx, opt, c);
      const auto r = sel::branch_and_bound_select(ctx, opt, c);
      if (!r.certified || r.feasible != bf.feasible ||
          r.nodes != bf.nodes || r.objective != bf.objective) {
        std::fprintf(stderr,
                     "FAIL: oracle mismatch m=%d %s (certified=%d)\n", m,
                     sel::criterion_name(c), r.certified ? 1 : 0);
        rc = 1;
      }
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  ExactGridOptions opt;
  bool csv = false;
  bool check = false;
  bool no_constraints = false;
  const char* json_path = nullptr;
  bench::ObsExport obs_export;
  bench::Args args;
  args.option("--seed", "S", &opt.seed)
      .option("--hosts", "N", &opt.hosts)
      .option("--budget", "N", &opt.node_budget)
      .flag("--csv", &csv)
      .flag("--no-constraints", &no_constraints)
      .flag("--check", &check)
      .option("--bench-json", "PATH", &json_path);
  obs_export.declare(args);
  args.parse(argc, argv);
  if (no_constraints) opt.constraint_cells = false;
  if (opt.hosts < 24 || opt.hosts % 12 != 0)
    args.fail("--hosts must be >= 24 and divisible by 12");
  obs_export.enable();

  if (check) {
    // Reduced grid: small instances, shallow m, tight budget — seconds,
    // not minutes, in a sanitizer build.
    opt.hosts = 24;
    opt.ms = {2, 4};
    opt.node_budget = 5000;
  }
  opt.verbose = true;

  std::vector<netsel::exp::ExactCell> cells;
  {
    netsel::obs::Span span("exact.grid", "bench");
    cells = netsel::exp::run_exact_grid(opt);
  }
  const Headline h = summarize(cells);
  std::printf("%s", netsel::exp::format_exact_grid(cells, opt).c_str());
  std::printf("cells=%zu exact=%zu bounded=%zu sound=%s worst_ratio=%.4f\n",
              h.cells, h.exact_cells, h.bounded_cells,
              h.sound ? "true" : "false", h.worst_greedy_ratio);
  if (csv) std::printf("%s", netsel::exp::exact_grid_csv(cells, opt).c_str());

  int rc = 0;
  if (json_path) rc |= write_bench_json(json_path, opt, cells, h);
  if (!obs_export.write()) rc = 1;

  if (check) {
    if (!h.sound) {
      std::fprintf(stderr, "FAIL: unsound cell in the reduced grid\n");
      rc = 1;
    }
    if (h.exact_cells == 0) {
      std::fprintf(stderr, "FAIL: no cell certified in the reduced grid\n");
      rc = 1;
    }
    rc |= check_oracle(opt.seed);
    std::fprintf(stderr, rc == 0 ? "check OK\n" : "check FAILED\n");
  }
  return rc;
}
