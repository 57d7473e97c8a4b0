// Microbenchmarks of the node-selection algorithms (paper §3.2,
// "Computation complexity"): the paper bounds Fig. 2 / Fig. 3 at O(n^2) and
// notes selection cost was "insignificant in comparison with the execution
// times of the applications". These google-benchmark timings verify the
// scaling over generated topologies from 16 to 4096 nodes and measure the
// O(n) max-compute selection and the exact brute-force reference for
// context.
//
// The SelectionContext layer too: a context build, cached rows on repeated
// evaluate_set queries, and the Fig. 2 / Fig. 3 replays against the naive
// reference loops (select/reference.hpp) that recompute connectivity after
// every link deletion — BM_Fig2_Naive vs BM_Fig2_Context (and the Fig. 3
// pair) at >= 200 compute nodes is the headline comparison.

#include <benchmark/benchmark.h>

#include <memory>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "select/reference.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

using namespace netsel;

namespace {

/// Owns the graph together with the snapshot view into it (NetworkSnapshot
/// references the topology, so the two must travel together).
struct Instance {
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

Instance make_instance(int compute_nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  topo::RandomTreeOptions opt;
  opt.compute_nodes = compute_nodes;
  opt.network_nodes = std::max(2, compute_nodes / 4);
  Instance inst;
  inst.graph =
      std::make_unique<topo::TopologyGraph>(topo::random_tree(rng, opt));
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  for (auto n : inst.graph->compute_nodes())
    inst.snap->set_loadavg(n, rng.uniform(0.0, 3.0));
  for (std::size_t l = 0; l < inst.graph->link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    inst.snap->set_bw(id, rng.uniform(0.05, 1.0) * inst.snap->maxbw(id));
  }
  return inst;
}

void BM_MaxCompute(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  const auto& snap = *inst.snap;
  select::SelectionOptions opt;
  opt.num_nodes = 8;
  for (auto _ : state) {
    auto r = select::select_max_compute(snap, opt);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxCompute)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_MaxBandwidth_Fig2(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 12);
  const auto& snap = *inst.snap;
  select::SelectionOptions opt;
  opt.num_nodes = 8;
  for (auto _ : state) {
    auto r = select::select_max_bandwidth(snap, opt);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxBandwidth_Fig2)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

void BM_Balanced_Fig3(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 13);
  const auto& snap = *inst.snap;
  select::SelectionOptions opt;
  opt.num_nodes = 8;
  for (auto _ : state) {
    auto r = select::select_balanced(snap, opt);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Balanced_Fig3)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_Balanced_Fig3_Exhaustive(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 13);
  const auto& snap = *inst.snap;
  select::SelectionOptions opt;
  opt.num_nodes = 8;
  opt.exhaustive_balanced = true;
  for (auto _ : state) {
    auto r = select::select_balanced(snap, opt);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Balanced_Fig3_Exhaustive)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

void BM_BruteForceReference(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 14);
  const auto& snap = *inst.snap;
  select::SelectionOptions opt;
  opt.num_nodes = 4;
  for (auto _ : state) {
    auto r = select::brute_force_select(snap, opt, select::Criterion::Balanced);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BruteForceReference)->DenseRange(8, 24, 4)->Complexity();

// Selection on the paper's actual testbed: the cost that was "insignificant
// in comparison with the execution times of the applications".
void BM_Fig4TestbedSelection(benchmark::State& state) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  util::Rng rng(15);
  for (auto n : g.compute_nodes()) snap.set_loadavg(n, rng.uniform(0.0, 2.0));
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    snap.set_bw(id, rng.uniform(0.1, 1.0) * snap.maxbw(id));
  }
  select::SelectionOptions opt;
  opt.num_nodes = 4;
  for (auto _ : state) {
    auto r = select::select_balanced(snap, opt);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig4TestbedSelection);

// ------------------------------------------------- SelectionContext layer

select::SelectionOptions options_for(int m) {
  select::SelectionOptions opt;
  opt.num_nodes = m;
  return opt;
}

void BM_ContextBuild(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    select::SelectionContext ctx(*inst.snap);
    benchmark::DoNotOptimize(ctx.links_by_bw().size());
  }
}
BENCHMARK(BM_ContextBuild)->Range(64, 1024);

void BM_Fig2_Naive(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  auto opt = options_for(8);
  for (auto _ : state) {
    auto r = select::detail::reference_select_max_bandwidth(*inst.snap, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_Fig2_Naive)->Range(64, 1024)->Unit(benchmark::kMillisecond);

void BM_Fig2_Context(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  auto opt = options_for(8);
  select::SelectionContext ctx(*inst.snap);
  for (auto _ : state) {
    auto r = select::select_max_bandwidth(ctx, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_Fig2_Context)->Range(64, 1024)->Unit(benchmark::kMillisecond);

void BM_Fig3_Naive(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  auto opt = options_for(8);
  for (auto _ : state) {
    auto r = select::detail::reference_select_balanced(*inst.snap, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_Fig3_Naive)->Range(64, 1024)->Unit(benchmark::kMillisecond);

void BM_Fig3_Context(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 11);
  auto opt = options_for(8);
  select::SelectionContext ctx(*inst.snap);
  for (auto _ : state) {
    auto r = select::select_balanced(ctx, opt);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_Fig3_Context)->Range(64, 1024)->Unit(benchmark::kMillisecond);

// evaluate_set over one shared context (rows cached across calls) vs the
// naive per-call BFS. Evaluates many distinct subsets, the way the API
// service evaluates several placement groups against one snapshot.
void BM_EvaluateSet_Naive(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 13);
  auto computes = inst.graph->compute_nodes();
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i + 4 < computes.size(); i += 4) {
      std::vector<topo::NodeId> nodes(computes.begin() + i,
                                      computes.begin() + i + 4);
      acc += select::detail::reference_evaluate_set(*inst.snap, nodes)
                 .min_pair_bw;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EvaluateSet_Naive)->Range(64, 512)->Unit(benchmark::kMillisecond);

void BM_EvaluateSet_Context(benchmark::State& state) {
  auto inst = make_instance(static_cast<int>(state.range(0)), 13);
  auto computes = inst.graph->compute_nodes();
  select::SelectionContext ctx(*inst.snap);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i + 4 < computes.size(); i += 4) {
      std::vector<topo::NodeId> nodes(computes.begin() + i,
                                      computes.begin() + i + 4);
      acc += select::evaluate_set(ctx, nodes).min_pair_bw;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EvaluateSet_Context)
    ->Range(64, 512)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
