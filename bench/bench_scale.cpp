// Scalability of the selection stack on synthetic datacenter topologies
// (topo/synthetic.hpp): a grid of topology family x node count x criterion,
// timing each selection cold (fresh SelectionContext: deletion orders and
// components built during the call) and warm (orders cached), and aborting
// if a warm rerun does not repeat the cold selection. On top of the grid:
//
//   * with --huge, a ~1,000,000-host three-level fat-tree cell (balanced
//     criterion only) that becomes the headline;
//   * peak-RSS accounting in the JSON record.
//
// Headline contract (tracked in BENCH_scale.json and checked in CI):
// balanced selection on the largest fat-tree in the run, cold,
// single-threaded, in under 1 s.
//
// Usage: bench_scale [reps] [seed] [flags]
// Defaults: 3 reps per cell, seed 4242, m = 16.
//   --m M            selection size for every cell (the paper's m).
//   --huge           add the ~1M-host three-level fat-tree cell (balanced
//                    only; the other criteria stay on the grid sizes).
//   --check          CI smoke: run a reduced grid at two reps per cell (the
//                    warm rerun must repeat the cold selection) and exit
//                    non-zero if any generator output fails to round-trip
//                    through the .topo serialiser. Tables are skipped.
//   --csv            append the machine-readable grid after the table.
//   --bench-json P   write the perf record (per-cell timings, headline,
//                    memory, counters) to P.
//   --metrics-json P, --chrome-trace P  write the obs metrics document /
//                    the Chrome trace of the run (bench/harness.hpp).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "topo/parse.hpp"
#include "topo/synthetic.hpp"

namespace {

using namespace netsel;
using bench::Clock;
using bench::seconds_since;

struct CaseSpec {
  const char* family;
  topo::TopologyGraph graph;
  double build_seconds = 0.0;
  int hosts = 0;
  /// The --huge cell: cold balanced selection only. The deletion-order
  /// criteria would also finish, but at 1M+ links they dominate the run
  /// without adding coverage beyond the grid sizes.
  bool balanced_only = false;
};

/// The benchmark grid; `reduced` is the --check smoke (small sizes, still
/// one instance of every family so every generator code path runs).
std::vector<CaseSpec> build_cases(std::uint64_t seed, bool reduced,
                                  bool huge) {
  std::vector<CaseSpec> cases;
  auto add = [&](const char* family, topo::TopologyGraph g, double secs,
                 bool balanced_only = false) {
    const int hosts = static_cast<int>(g.compute_node_count());
    cases.push_back({family, std::move(g), secs, hosts, balanced_only});
  };
  const std::vector<int> ft_hosts =
      reduced ? std::vector<int>{256} : std::vector<int>{512, 2048, 10000};
  for (int h : ft_hosts) {
    auto t0 = Clock::now();
    auto g = topo::fat_tree(topo::fat_tree_for_hosts(h, 48, 3.0, seed));
    add("fat_tree", std::move(g), seconds_since(t0));
  }
  {
    // Three-level variant: one small instance always (generator coverage),
    // plus the ~1M-host headline cell under --huge.
    auto o = topo::three_level_fat_tree_for_hosts(
        reduced ? 128 : 4096, reduced ? 8 : 24, 3.0, 1024, seed);
    auto t0 = Clock::now();
    auto g = topo::three_level_fat_tree(o);
    add("fat_tree_3l", std::move(g), seconds_since(t0));
  }
  if (huge) {
    auto o = topo::three_level_fat_tree_for_hosts(1000000, 48, 3.0, 1024,
                                                  seed);
    auto t0 = Clock::now();
    auto g = topo::three_level_fat_tree(o);
    add("fat_tree_3l", std::move(g), seconds_since(t0),
        /*balanced_only=*/true);
  }
  struct CampusSize {
    int campuses, buildings, hosts;
  };
  const std::vector<CampusSize> cw = reduced
                                         ? std::vector<CampusSize>{{4, 2, 8}}
                                         : std::vector<CampusSize>{
                                               {8, 4, 16}, {16, 8, 16}};
  for (const auto& s : cw) {
    topo::CampusWanOptions o;
    o.campuses = s.campuses;
    o.buildings_per_campus = s.buildings;
    o.hosts_per_building = s.hosts;
    o.seed = seed;
    auto t0 = Clock::now();
    auto g = topo::campus_wan(o);
    add("campus_wan", std::move(g), seconds_since(t0));
  }
  struct CoreEdgeSize {
    int cores, edges, hosts;
  };
  const std::vector<CoreEdgeSize> ce =
      reduced ? std::vector<CoreEdgeSize>{{8, 16, 128}}
              : std::vector<CoreEdgeSize>{{16, 64, 512}, {32, 128, 2048}};
  for (const auto& s : ce) {
    topo::RandomCoreEdgeOptions o;
    o.core_switches = s.cores;
    o.edge_switches = s.edges;
    o.hosts = s.hosts;
    o.seed = seed;
    auto t0 = Clock::now();
    auto g = topo::random_core_edge(o);
    add("random_core_edge", std::move(g), seconds_since(t0));
  }
  return cases;
}

bool same_selection(const select::SelectionResult& a,
                    const select::SelectionResult& b) {
  return a.feasible == b.feasible && a.nodes == b.nodes &&
         a.min_cpu == b.min_cpu && a.min_bw_fraction == b.min_bw_fraction &&
         a.objective == b.objective && a.iterations == b.iterations;
}

struct CriterionTiming {
  select::Criterion criterion;
  double cold_seconds = 0.0;  // first call on a fresh context
  double warm_seconds = 0.0;  // mean of the remaining reps
};

struct CellResult {
  const CaseSpec* spec = nullptr;
  std::vector<CriterionTiming> timings;
};

constexpr select::Criterion kCriteria[] = {select::Criterion::MaxCompute,
                                           select::Criterion::MaxBandwidth,
                                           select::Criterion::Balanced};

CellResult run_cell(const CaseSpec& spec, std::uint64_t seed, int m,
                    int reps) {
  obs::Span span("scale.cell", "bench");
  span.arg("family", spec.family);
  span.arg("nodes", std::to_string(spec.graph.node_count()));
  remos::NetworkSnapshot snap(spec.graph);
  remos::apply_synthetic_load(snap, seed + 7);
  CellResult out;
  out.spec = &spec;
  for (select::Criterion c : kCriteria) {
    if (spec.balanced_only && c != select::Criterion::Balanced) continue;
    select::SelectionOptions opt;
    opt.num_nodes = m;
    CriterionTiming t;
    t.criterion = c;
    select::SelectionResult first;
    if (spec.balanced_only) {
      // The huge cell: every rep is a fresh context (all cold — the
      // contract is about cold selections), best taken so one noisy
      // scheduler quantum at the ~1 s scale does not decide the record.
      t.cold_seconds = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        select::SelectionContext ctx(snap);
        auto t0 = Clock::now();
        auto again = select::select_nodes(c, ctx, opt);
        t.cold_seconds = std::min(t.cold_seconds, seconds_since(t0));
        if (r == 0)
          first = std::move(again);
        else if (!same_selection(first, again))
          std::abort();
      }
      t.warm_seconds = t.cold_seconds;
    } else {
      select::SelectionContext ctx(snap);
      auto t0 = Clock::now();
      first = select::select_nodes(c, ctx, opt);
      t.cold_seconds = seconds_since(t0);
      if (reps > 1) {
        auto t1 = Clock::now();
        for (int r = 1; r < reps; ++r) {
          auto again = select::select_nodes(c, ctx, opt);
          if (!same_selection(first, again)) std::abort();
        }
        t.warm_seconds = seconds_since(t1) / (reps - 1);
      } else {
        t.warm_seconds = t.cold_seconds;
      }
    }
    out.timings.push_back(t);
  }
  return out;
}

int run_check(std::uint64_t seed, int m) {
  int rc = 0;
  auto cases = build_cases(seed, /*reduced=*/true, /*huge=*/false);
  for (const CaseSpec& spec : cases) {
    // Generator outputs must round-trip through the .topo serialiser.
    auto text = topo::format_topology(spec.graph);
    auto reparsed = topo::parse_topology(text);
    if (reparsed.node_count() != spec.graph.node_count() ||
        reparsed.link_count() != spec.graph.link_count()) {
      std::fprintf(stderr, "CHECK FAILED: %s does not round-trip via .topo\n",
                   spec.family);
      rc = 2;
    }
    run_cell(spec, seed, m, 2);
  }
  std::fprintf(stderr, rc == 0 ? "check: OK\n" : "check: FAILED\n");
  return rc;
}

int write_bench_json(const char* path, std::uint64_t seed, int m, int reps,
                     const std::vector<CellResult>& cells,
                     const CriterionTiming* headline,
                     const CaseSpec* headline_spec) {
  bench::JsonWriter w(path, "scale");
  w.field("seed", seed).field("m", m).field("reps", reps).array("cells");
  for (const CellResult& cell : cells) {
    w.object()
        .field("family", cell.spec->family)
        .field("nodes", cell.spec->graph.node_count())
        .field("links", cell.spec->graph.link_count())
        .field("hosts", cell.spec->hosts)
        .field("build_seconds", cell.spec->build_seconds, "%.4f")
        .object("criteria");
    for (const CriterionTiming& t : cell.timings)
      w.object(select::criterion_name(t.criterion), true)
          .field("cold_seconds", t.cold_seconds, "%.5f")
          .field("warm_seconds", t.warm_seconds, "%.5f")
          .end();
    w.end().end();
  }
  w.end();
  if (headline && headline_spec) {
    const std::string contract =
        "balanced m=" + std::to_string(m) +
        " on the largest fat-tree, cold, single-threaded, < 1 s";
    w.object("headline")
        .field("contract", contract)
        .field("family", headline_spec->family)
        .field("nodes", headline_spec->graph.node_count())
        .field("hosts", headline_spec->hosts)
        .field("cold_seconds", headline->cold_seconds, "%.5f")
        .field("target_seconds", 1.0, "%.1f")
        .field("within_target", headline->cold_seconds < 1.0)
        .end();
  }
  w.object("memory").field("peak_rss_bytes", bench::peak_rss_bytes()).end();
  w.object("metrics")
      .field("ctx_row_misses", bench::counter("select.ctx.row_misses"))
      .end();
  return w.close();
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::uint64_t seed = 4242;
  int m = 16;
  bool csv = false;
  bool check = false;
  bool huge = false;
  const char* json_path = nullptr;
  bench::ObsExport obs_export;
  bench::Args args;
  args.positional("reps", &reps, 1)
      .positional("seed", &seed)
      .flag("--csv", &csv)
      .flag("--check", &check)
      .flag("--huge", &huge)
      .option("--m", "M", &m, 1)
      .option("--bench-json", "PATH", &json_path);
  obs_export.declare(args);
  args.parse(argc, argv);
  if (check) return run_check(seed, m);
  obs_export.enable(json_path != nullptr);

  std::fprintf(stderr, "bench_scale: generating topologies (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  auto cases = build_cases(seed, /*reduced=*/false, huge);

  std::printf(
      "== Selection at scale: synthetic fabrics, m=%d, %d reps, seed %llu ==\n"
      "   cold = fresh context; warm = cached deletion orders\n\n"
      "%-18s %8s %8s %8s  %-14s %9s %9s\n",
      m, reps, static_cast<unsigned long long>(seed), "family", "nodes",
      "links", "hosts", "criterion", "cold_ms", "warm_ms");
  std::vector<CellResult> cells;
  const CriterionTiming* headline = nullptr;
  const CaseSpec* headline_spec = nullptr;
  for (const CaseSpec& spec : cases) {
    cells.push_back(run_cell(spec, seed, m, reps));
    const CellResult& cell = cells.back();
    for (const CriterionTiming& t : cell.timings) {
      std::printf("%-18s %8zu %8zu %8d  %-14s %9.2f %9.2f\n", spec.family,
                  spec.graph.node_count(), spec.graph.link_count(),
                  spec.hosts, select::criterion_name(t.criterion),
                  t.cold_seconds * 1e3, t.warm_seconds * 1e3);
      if (t.criterion == select::Criterion::Balanced &&
          std::strncmp(spec.family, "fat_tree", 8) == 0 &&
          (!headline_spec ||
           spec.graph.node_count() > headline_spec->graph.node_count())) {
        headline = &t;
        headline_spec = &spec;
      }
    }
  }

  if (headline && headline_spec) {
    std::printf(
        "headline: balanced m=%d on %zu-node %s cold in %.1f ms "
        "(target < 1000 ms): %s\n",
        m, headline_spec->graph.node_count(), headline_spec->family,
        headline->cold_seconds * 1e3,
        headline->cold_seconds < 1.0 ? "PASS" : "FAIL");
  }
  std::printf("peak RSS %.1f MiB\n",
              static_cast<double>(bench::peak_rss_bytes()) /
                  (1024.0 * 1024.0));
  if (csv) {
    std::printf("\n-- csv --\nfamily,nodes,links,hosts,criterion,cold_s,"
                "warm_s\n");
    for (const CellResult& cell : cells)
      for (const CriterionTiming& t : cell.timings)
        std::printf("%s,%zu,%zu,%d,%s,%.5f,%.5f\n", cell.spec->family,
                    cell.spec->graph.node_count(),
                    cell.spec->graph.link_count(), cell.spec->hosts,
                    select::criterion_name(t.criterion), t.cold_seconds,
                    t.warm_seconds);
  }
  // Export the process footprint alongside the context gauges so the
  // metrics document carries it too (scale profile of
  // scripts/check_metrics_json.py).
  obs::Registry::global()
      .gauge("proc.peak_rss_bytes")
      .set(static_cast<double>(bench::peak_rss_bytes()));
  if (json_path && write_bench_json(json_path, seed, m, reps, cells,
                                    headline, headline_spec))
    return 1;
  // Pre-register the service metrics so the exported document carries the
  // full schema (scripts/check_metrics_json.py requires the degradation
  // ladder), even though this benchmark never places through the service.
  api::register_service_metrics();
  return obs_export.write() ? 0 : 1;
}
