// Tests for the Figure-3 balanced computation + communication algorithm,
// and for the merge forest's per-thread workspace: calls that reuse it
// across graphs of different sizes, after a node is added, and from many
// threads on one shared context must each match the literal loop.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/brute_force.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "select/reference.hpp"
#include "topo/generators.hpp"
#include "topo/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace netsel::select {
namespace {

TEST(Balanced, ReducesToMaxComputeOnIdleNetwork) {
  auto g = topo::testbed();
  remos::NetworkSnapshot snap(g);
  int i = 0;
  for (auto n : g.compute_nodes()) snap.set_loadavg(n, 0.05 * i++);
  SelectionOptions opt;
  opt.num_nodes = 4;
  auto bal = select_balanced(snap, opt);
  auto cpu = select_max_compute(snap, opt);
  ASSERT_TRUE(bal.feasible);
  EXPECT_EQ(bal.nodes, cpu.nodes) << "idle links: cpu optimisation dominates";
}

TEST(Balanced, TradesCpuForBandwidthWhenLinksCongested) {
  // The least-loaded nodes sit behind congested access links; balanced
  // selection must leave them for slightly more loaded nodes with clean
  // links once the bandwidth fraction drops below the cpu fraction.
  auto g = topo::star(6);
  remos::NetworkSnapshot snap(g);
  // h0, h1: completely idle cpu but only 10-12% bandwidth available
  // (distinct values: the paper's stop rule needs strict improvement).
  snap.set_cpu(g.find_node("h0").value(), 1.0);
  snap.set_cpu(g.find_node("h1").value(), 1.0);
  snap.set_bw(0, 10e6);
  snap.set_bw(1, 12e6);
  // h2..h5: 60% cpu, full links.
  for (int i = 2; i < 6; ++i)
    snap.set_cpu(g.find_node("h" + std::to_string(i)).value(), 0.6);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto bal = select_balanced(snap, opt);
  ASSERT_TRUE(bal.feasible);
  // Balanced objective: clean pair gives min(0.6, 1.0) = 0.6;
  // idle-but-congested pair gives min(1.0, 0.1) = 0.1.
  for (auto n : bal.nodes)
    EXPECT_GE(g.node(n).name[1], '2') << "must avoid congested h0/h1";
  EXPECT_NEAR(bal.objective, 0.6, 1e-12);
  // Max-compute would have picked h0/h1.
  auto cpu = select_max_compute(snap, opt);
  EXPECT_EQ(g.node(cpu.nodes[0]).name, "h0");
}

TEST(Balanced, PaperRuleStallsOnPlateauExhaustiveDoesNot) {
  // Two equally congested links form a plateau: removing the first brings
  // no strict improvement, so the paper-exact loop stops with the inferior
  // set; the exhaustive extension sweeps past it.
  auto g = topo::star(6);
  remos::NetworkSnapshot snap(g);
  snap.set_bw(0, 10e6);
  snap.set_bw(1, 10e6);  // exact tie with link 0
  for (int i = 2; i < 6; ++i)
    snap.set_cpu(g.find_node("h" + std::to_string(i)).value(), 0.6);
  SelectionOptions opt;
  opt.num_nodes = 2;
  auto paper = select_balanced(snap, opt);
  ASSERT_TRUE(paper.feasible);
  EXPECT_NEAR(paper.objective, 0.1, 1e-12) << "paper rule stops on plateau";
  opt.exhaustive_balanced = true;
  auto full = select_balanced(snap, opt);
  ASSERT_TRUE(full.feasible);
  EXPECT_NEAR(full.objective, 0.6, 1e-12);
  for (auto n : full.nodes) EXPECT_GE(g.node(n).name[1], '2');
}

TEST(Balanced, ObjectiveNeverBelowMaxComputeStart) {
  // The greedy only accepts strictly improving sets, so its objective is at
  // least the value of its max-compute starting point.
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 3.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto bal = select_balanced(snap, opt);
    ASSERT_TRUE(bal.feasible);
    auto cpu = select_max_compute(snap, opt);
    // Evaluate the max-compute set under the Fig.-3 objective definition:
    // its component is the whole graph, so minbw = global min fraction.
    double global_min_frac = 1.0;
    for (std::size_t l = 0; l < g.link_count(); ++l)
      global_min_frac =
          std::min(global_min_frac, snap.bwfactor(static_cast<topo::LinkId>(l)));
    double start_value = std::min(cpu.min_cpu, global_min_frac);
    EXPECT_GE(bal.objective, start_value - 1e-12);
  }
}

TEST(Balanced, RarelyWorseThanMaxComputePairwise) {
  // Fig. 3 improves a *conservative* (component-edge) bound, so by the
  // exact pairwise objective it can occasionally trail max-compute; across
  // a deterministic sample of random instances it should dominate nearly
  // always.
  int wins_or_ties = 0;
  util::Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 3.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.05, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 3;
    auto bal = select_balanced(snap, opt);
    ASSERT_TRUE(bal.feasible);
    double bal_val = evaluate_set(snap, bal.nodes, opt).balanced;
    double cpu_val =
        evaluate_set(snap, select_max_compute(snap, opt).nodes, opt).balanced;
    if (bal_val >= cpu_val - 1e-12) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, 16);
}

TEST(Balanced, WithinBruteForceBound) {
  // Greedy is a heuristic: certify it never exceeds the true optimum and
  // stays within a sane fraction of it on small instances.
  util::Rng rng(23);
  int at_optimum = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    topo::RandomTreeOptions topt;
    topt.compute_nodes = 8;
    topt.network_nodes = 3;
    auto g = topo::random_tree(rng, topt);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 2.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.1, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 3;
    auto bal = select_balanced(snap, opt);
    auto exact = brute_force_select(snap, opt, Criterion::Balanced);
    ASSERT_TRUE(bal.feasible);
    ASSERT_TRUE(exact.feasible);
    double bal_val = evaluate_set(snap, bal.nodes, opt).balanced;
    EXPECT_LE(bal_val, exact.objective + 1e-12);
    if (bal_val >= exact.objective - 1e-9) ++at_optimum;
  }
  // The greedy should hit the exact optimum most of the time at this scale.
  EXPECT_GE(at_optimum, trials / 2);
}

TEST(Balanced, PriorityFactorShiftsChoice) {
  // Paper §3.3: prioritising computation by 2 treats 50% CPU like 25%
  // bandwidth. Construct a case where the priority flips the decision.
  auto g = topo::star(4);
  remos::NetworkSnapshot snap(g);
  // Pair A (h0,h1): cpu 0.9 but links at 40/42% (distinct: the paper's
  // greedy only continues through strictly improving removals).
  snap.set_cpu(1, 0.9);
  snap.set_cpu(2, 0.9);
  snap.set_bw(0, 40e6);
  snap.set_bw(1, 42e6);
  // Pair B (h2,h3): cpu 0.5, links full.
  snap.set_cpu(3, 0.5);
  snap.set_cpu(4, 0.5);
  SelectionOptions opt;
  opt.num_nodes = 2;
  // Neutral: A = min(.9,.40) = .40; B = min(.5,1) = .5 -> B wins.
  auto neutral = select_balanced(snap, opt);
  EXPECT_EQ(neutral.nodes, (std::vector<topo::NodeId>{3, 4}));
  EXPECT_NEAR(neutral.objective, 0.5, 1e-12);
  // cpu_priority 2: A = min(.45,.40)=.40; B = min(.25,1)=.25 -> A wins.
  opt.cpu_priority = 2.0;
  auto cpu_prio = select_balanced(snap, opt);
  EXPECT_EQ(cpu_prio.nodes, (std::vector<topo::NodeId>{1, 2}));
  EXPECT_NEAR(cpu_prio.objective, 0.4, 1e-12);
}

TEST(Balanced, SteinerRestrictedExhaustiveUsuallyAtLeastAsGood) {
  // The Steiner-restricted variant scores candidates by the links actually
  // on paths between them — a tighter bound. Under the paper's early-stop
  // rule that backfires (the high initial estimate halts the sweep at the
  // max-compute set), so the variant is paired with the exhaustive sweep;
  // then it should essentially never lose to the paper variant by the true
  // pairwise objective.
  int wins_or_ties = 0;
  util::Rng rng(24);
  for (int trial = 0; trial < 10; ++trial) {
    auto g = topo::random_tree(rng);
    remos::NetworkSnapshot snap(g);
    for (auto n : g.compute_nodes())
      snap.set_loadavg(n, rng.uniform(0.0, 2.0));
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      auto id = static_cast<topo::LinkId>(l);
      snap.set_bw(id, rng.uniform(0.1, 1.0) * snap.maxbw(id));
    }
    SelectionOptions opt;
    opt.num_nodes = 4;
    auto paper = select_balanced(snap, opt);
    opt.steiner_restricted = true;
    opt.exhaustive_balanced = true;
    auto steiner = select_balanced(snap, opt);
    ASSERT_TRUE(paper.feasible);
    ASSERT_TRUE(steiner.feasible);
    opt.steiner_restricted = false;
    opt.exhaustive_balanced = false;
    double paper_val = evaluate_set(snap, paper.nodes, opt).balanced;
    double steiner_val = evaluate_set(snap, steiner.nodes, opt).balanced;
    if (steiner_val >= paper_val - 1e-9) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, 8);
}

TEST(Balanced, InfeasibleAndDegenerateCases) {
  auto g = topo::star(3);
  remos::NetworkSnapshot snap(g);
  SelectionOptions opt;
  opt.num_nodes = 4;
  EXPECT_FALSE(select_balanced(snap, opt).feasible);
  opt.num_nodes = 1;
  auto r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 1u);
  opt.num_nodes = 3;
  r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes.size(), 3u);
}

TEST(Balanced, MinCpuRequirementExcludesBusyNodes) {
  auto g = topo::star(5);
  remos::NetworkSnapshot snap(g);
  snap.set_loadavg(1, 4.0);  // cpu 0.2
  snap.set_loadavg(2, 4.0);
  SelectionOptions opt;
  opt.num_nodes = 3;
  opt.min_cpu_fraction = 0.5;
  auto r = select_balanced(snap, opt);
  ASSERT_TRUE(r.feasible);
  for (auto n : r.nodes) EXPECT_GE(snap.cpu(n), 0.5);
  opt.num_nodes = 4;
  EXPECT_FALSE(select_balanced(snap, opt).feasible);
}

// --- Merge-forest workspace -------------------------------------------------

/// Option variants that reach every branch of the forest's set-up: the
/// cached fraction order, a reference capacity, a min-bandwidth filter,
/// the exhaustive rule and an eligibility mask.
std::vector<SelectionOptions> forest_variants(const topo::TopologyGraph& g) {
  std::vector<SelectionOptions> out;
  for (int m : {2, 4, 8}) {
    SelectionOptions plain;
    plain.num_nodes = m;
    out.push_back(plain);
    SelectionOptions exhaustive = plain;
    exhaustive.exhaustive_balanced = true;
    out.push_back(exhaustive);
    SelectionOptions reference = plain;
    reference.reference_bw = topo::k100Mbps;
    out.push_back(reference);
    SelectionOptions min_bw = plain;
    min_bw.min_bw_bps = 30 * topo::kMbps;
    out.push_back(min_bw);
    SelectionOptions both = reference;
    both.min_bw_bps = 30 * topo::kMbps;
    both.cpu_priority = 2.0;
    out.push_back(both);
    SelectionOptions masked = plain;
    masked.eligible.assign(g.node_count(), 1);
    for (std::size_t i = 0; i < masked.eligible.size(); i += 3)
      masked.eligible[i] = 0;
    out.push_back(masked);
  }
  return out;
}

void expect_identical(const SelectionResult& got, const SelectionResult& ref,
                      const std::string& what) {
  ASSERT_EQ(got.feasible, ref.feasible) << what;
  EXPECT_EQ(got.nodes, ref.nodes) << what;
  EXPECT_EQ(got.iterations, ref.iterations) << what;
  if (!got.feasible) return;
  EXPECT_EQ(got.min_cpu, ref.min_cpu) << what;
  EXPECT_EQ(got.min_bw_fraction, ref.min_bw_fraction) << what;
  EXPECT_EQ(got.objective, ref.objective) << what;
}

void check_all_variants(const SelectionContext& ctx, const std::string& what) {
  const auto variants = forest_variants(ctx.graph());
  for (std::size_t v = 0; v < variants.size(); ++v)
    expect_identical(
        select_balanced(ctx, variants[v]),
        detail::reference_select_balanced(ctx.snapshot(), variants[v]),
        what + " variant " + std::to_string(v));
}

// One thread, one workspace: large, small, cyclic and acyclic graphs in
// turn, so each call runs on arrays a differently sized call left behind.
TEST(BalancedWorkspace, ReusedAcrossGraphsOfDifferentSizes) {
  std::vector<topo::TopologyGraph> graphs;
  graphs.push_back(topo::fat_tree(topo::fat_tree_for_hosts(96, 8, 2.0, 3)));
  graphs.push_back(topo::star(5));
  topo::RandomCoreEdgeOptions core_edge;
  core_edge.hosts = 40;
  core_edge.seed = 5;
  graphs.push_back(topo::random_core_edge(core_edge));
  graphs.push_back(topo::fat_tree(topo::fat_tree_for_hosts(16, 8, 2.0, 7)));
  graphs.push_back(topo::campus_wan());
  graphs.push_back(topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 3.0, 9)));
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      remos::NetworkSnapshot snap(graphs[i]);
      remos::apply_synthetic_load(snap, 100 + i + 10 * pass);
      SelectionContext ctx(snap);
      check_all_variants(ctx, "pass " + std::to_string(pass) + " graph " +
                                  std::to_string(i));
    }
  }
}

// A warm context that then sees a node and a link appended: the workspace
// must grow with the graph, and the context's cached fraction order must
// pick up the new link.
TEST(BalancedWorkspace, FollowsNodeAddition) {
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(32, 8, 2.0, 13));
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, 17);
  SelectionContext ctx(snap);
  check_all_variants(ctx, "before");
  const topo::NodeId host = g.compute_nodes().front();
  const topo::NodeId edge = g.other_end(g.links_of(host).front(), host);
  for (int k = 0; k < 3; ++k) {
    const topo::NodeId n = g.add_compute("late" + std::to_string(k));
    snap.notify_node_added(n);
    const topo::LinkId l = g.add_link(edge, n, topo::k100Mbps);
    snap.notify_link_added(l);
    snap.set_loadavg(n, 0.1 * k);
    snap.set_bw(l, (0.3 + 0.2 * k) * topo::k100Mbps);
    check_all_variants(ctx, "after add " + std::to_string(k));
  }
}

// Lanes run selections concurrently on one synced context, each thread on
// its own workspace (run under TSan in CI).
TEST(BalancedWorkspace, PooledCallsOnSharedContext) {
  auto g = topo::fat_tree(topo::fat_tree_for_hosts(64, 8, 2.0, 19));
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, 23);
  const auto variants = forest_variants(g);
  std::vector<SelectionResult> ref;
  for (const auto& opt : variants)
    ref.push_back(detail::reference_select_balanced(snap, opt));
  SelectionContext ctx(snap);
  ctx.sync();
  util::ThreadPool pool(4);
  constexpr std::size_t kRounds = 4;
  std::vector<SelectionResult> got(variants.size() * kRounds);
  util::parallel_for(pool, got.size(), [&](std::size_t i) {
    got[i] = select_balanced(ctx, variants[i % variants.size()]);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_identical(got[i], ref[i % variants.size()],
                     "call " + std::to_string(i));
}

}  // namespace
}  // namespace netsel::select
