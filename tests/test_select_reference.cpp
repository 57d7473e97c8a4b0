// The fast selectors against the retained naive references
// (select/reference.hpp): the merge forest, the reverse union-find replay
// and the cached decompositions must be bit-identical to the literal
// Fig. 2 / Fig. 3 / max-compute loops, so the oracle sweep runs every
// synthetic-generator family at <= 64 nodes across seeds, m values, and
// option variants, comparing node sets, objectives, and iteration counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/reference.hpp"
#include "topo/synthetic.hpp"

namespace netsel::select {
namespace {

struct Instance {
  std::string what;
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// Every generated topology family at <= 64 nodes, with seeded loads and
/// link availabilities on top (remos::apply_synthetic_load).
std::vector<Instance> instances(std::uint64_t seed) {
  std::vector<Instance> out;
  {
    auto ft = topo::fat_tree_for_hosts(24, 6, 2.0, seed);
    ft.cpu_jitter = 0.3;  // heterogeneous hosts exercise the cpu ranking
    Instance inst;
    inst.what = "fat_tree seed " + std::to_string(seed);
    inst.graph = std::make_unique<topo::TopologyGraph>(topo::fat_tree(ft));
    out.push_back(std::move(inst));
  }
  {
    topo::CampusWanOptions cw;
    cw.campuses = 2;
    cw.buildings_per_campus = 2;
    cw.hosts_per_building = 3;
    cw.seed = seed;
    Instance inst;
    inst.what = "campus_wan seed " + std::to_string(seed);
    inst.graph = std::make_unique<topo::TopologyGraph>(topo::campus_wan(cw));
    out.push_back(std::move(inst));
  }
  {
    topo::RandomCoreEdgeOptions ce;
    ce.core_switches = 4;
    ce.edge_switches = 8;
    ce.hosts = 32;
    ce.seed = seed;
    Instance inst;
    inst.what = "random_core_edge seed " + std::to_string(seed);
    inst.graph =
        std::make_unique<topo::TopologyGraph>(topo::random_core_edge(ce));
    out.push_back(std::move(inst));
  }
  for (auto& inst : out) {
    EXPECT_LE(inst.graph->node_count(), 64u) << inst.what;
    inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
    remos::apply_synthetic_load(*inst.snap, seed * 31 + 7);
  }
  return out;
}

/// Option variants covering the knobs that feed the ranking keys
/// (fractions, cpu ranking, eligibility).
std::vector<std::pair<std::string, SelectionOptions>> option_variants() {
  std::vector<std::pair<std::string, SelectionOptions>> out;
  out.emplace_back("base", SelectionOptions{});
  SelectionOptions opt;
  opt.min_bw_bps = 40 * topo::kMbps;
  out.emplace_back("min_bw", opt);
  opt = {};
  opt.reference_bw = topo::k100Mbps;
  out.emplace_back("reference_bw", opt);
  opt = {};
  opt.cpu_priority = 2.0;
  opt.bw_priority = 0.5;
  out.emplace_back("priorities", opt);
  opt = {};
  opt.min_cpu_fraction = 0.6;
  out.emplace_back("min_cpu", opt);
  opt = {};
  opt.exhaustive_balanced = true;
  out.emplace_back("exhaustive", opt);
  return out;
}

void expect_same_result(const SelectionResult& fast, const SelectionResult& ref,
                        const std::string& what) {
  ASSERT_EQ(fast.feasible, ref.feasible) << what;
  EXPECT_EQ(fast.nodes, ref.nodes) << what;
  EXPECT_EQ(fast.iterations, ref.iterations) << what;
  if (!fast.feasible) return;
  EXPECT_DOUBLE_EQ(fast.min_cpu, ref.min_cpu) << what;
  if (fast.nodes.size() >= 2) {
    EXPECT_DOUBLE_EQ(fast.min_bw_fraction, ref.min_bw_fraction) << what;
    EXPECT_DOUBLE_EQ(fast.objective, ref.objective) << what;
  }
}

SelectionResult reference_select(Criterion c,
                                 const remos::NetworkSnapshot& snap,
                                 const SelectionOptions& opt) {
  switch (c) {
    case Criterion::MaxCompute:
      return detail::reference_select_max_compute(snap, opt);
    case Criterion::MaxBandwidth:
      return detail::reference_select_max_bandwidth(snap, opt);
    case Criterion::Balanced:
      return detail::reference_select_balanced(snap, opt);
  }
  return {};
}

TEST(ReferenceOracle, FastPathsMatchNaiveReferencesOnAllFamilies) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& inst : instances(seed)) {
      for (const auto& [vname, base] : option_variants()) {
        for (int m : {2, 4, 8}) {
          for (Criterion c : {Criterion::MaxCompute, Criterion::MaxBandwidth,
                              Criterion::Balanced}) {
            SelectionOptions opt = base;
            opt.num_nodes = m;
            const std::string what = inst.what + " " + vname + " m=" +
                                     std::to_string(m) + " " +
                                     criterion_name(c);
            expect_same_result(select_nodes(c, *inst.snap, opt),
                               reference_select(c, *inst.snap, opt), what);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace netsel::select
