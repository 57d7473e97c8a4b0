// Tests for the production bottleneck-row kernel: the CsrAdjacency overload
// of topo::bottleneck_row, which every SelectionContext row is built with.
//
// Its contract is *bit-identity* to the literal TopologyGraph overload —
// every field, including the BFS tree links and the FIFO discovery order
// the SelectionContext delta-repair path replays. The oracle therefore
// compares whole rows across every synthetic family and several seeds, on
// a fresh CSR, on a CSR patched through random structural mutation
// sequences, and through SelectionContext::pair_row read from a thread
// pool after bandwidth deltas and sync().

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/context.hpp"
#include "topo/connectivity.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel::topo {
namespace {

struct Instance {
  std::string what;
  std::unique_ptr<TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// One instance per generator family, with seeded loads so the two weight
/// arrays are heterogeneous.
std::vector<Instance> instances(std::uint64_t seed) {
  std::vector<Instance> out;
  {
    Instance inst;
    inst.what = "fat_tree seed " + std::to_string(seed);
    auto ft = fat_tree_for_hosts(48, 8, 2.0, seed);
    ft.cpu_jitter = 0.2;
    inst.graph = std::make_unique<TopologyGraph>(fat_tree(ft));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "three_level_fat_tree seed " + std::to_string(seed);
    ThreeLevelFatTreeOptions tl;
    tl.pods = 3;
    tl.edge_per_pod = 3;
    tl.hosts_per_edge = 4;
    tl.agg_per_pod = 2;
    tl.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(three_level_fat_tree(tl));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "campus_wan seed " + std::to_string(seed);
    CampusWanOptions cw;
    cw.campuses = 3;
    cw.buildings_per_campus = 2;
    cw.hosts_per_building = 4;
    cw.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(campus_wan(cw));
    out.push_back(std::move(inst));
  }
  {
    Instance inst;
    inst.what = "random_core_edge seed " + std::to_string(seed);
    RandomCoreEdgeOptions ce;
    ce.core_switches = 5;
    ce.edge_switches = 9;
    ce.hosts = 40;
    ce.seed = seed;
    inst.graph = std::make_unique<TopologyGraph>(random_core_edge(ce));
    out.push_back(std::move(inst));
  }
  for (auto& inst : out) {
    inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
    remos::apply_synthetic_load(*inst.snap, seed * 131 + 17);
  }
  return out;
}

std::vector<double> bw_of(const remos::NetworkSnapshot& snap) {
  std::vector<double> bw(snap.graph().link_count());
  for (std::size_t l = 0; l < bw.size(); ++l)
    bw[l] = snap.bw(static_cast<LinkId>(l));
  return bw;
}

std::vector<double> bwfactor_of(const remos::NetworkSnapshot& snap) {
  std::vector<double> f(snap.graph().link_count());
  for (std::size_t l = 0; l < f.size(); ++l)
    f[l] = snap.bwfactor(static_cast<LinkId>(l));
  return f;
}

void expect_rows_identical(const BottleneckRow& got, const BottleneckRow& want,
                           const std::string& what) {
  EXPECT_EQ(got.bottleneck, want.bottleneck) << what;
  EXPECT_EQ(got.bottleneck2, want.bottleneck2) << what;
  EXPECT_EQ(got.latency, want.latency) << what;
  EXPECT_EQ(got.reached, want.reached) << what;
  EXPECT_EQ(got.tree_link, want.tree_link) << what;
  EXPECT_EQ(got.order, want.order) << what;
}

std::vector<NodeId> live_nodes(const TopologyGraph& g) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (!g.node_removed(static_cast<NodeId>(i)))
      out.push_back(static_cast<NodeId>(i));
  return out;
}

NodeId pick(util::Rng& rng, const std::vector<NodeId>& v) {
  return v[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

TEST(BottleneckRow, CsrKernelMatchesGraphKernel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const auto& inst : instances(seed)) {
      const auto adj = CsrAdjacency::build(*inst.graph);
      const auto bw = bw_of(*inst.snap);
      const auto f = bwfactor_of(*inst.snap);
      for (std::size_t n = 0; n < adj.node_count(); ++n) {
        const auto src = static_cast<NodeId>(n);
        expect_rows_identical(bottleneck_row(adj, src, bw, f),
                              bottleneck_row(*inst.graph, src, bw, f),
                              inst.what + " src " + std::to_string(n));
      }
    }
  }
}

/// The context patches its CSR in place under structural deltas and keeps
/// building rows from it: rows over a patched CSR must equal the graph
/// kernel's on the mutated graph. Weights are drawn per link id (tombstoned
/// slots included) with deliberate ties, so min() tie order is exercised.
TEST(BottleneckRow, PatchedCsrKernelMatchesGraphKernel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (auto& inst : instances(seed)) {
      TopologyGraph& g = *inst.graph;
      CsrAdjacency adj = CsrAdjacency::build(g);
      util::Rng rng(seed * 577 + 3);
      int names = 0;
      for (int step = 0; step < 24; ++step) {
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.35) {  // remove a link
          std::vector<LinkId> links;
          for (std::size_t l = 0; l < g.link_count(); ++l)
            if (!g.link_removed(static_cast<LinkId>(l)))
              links.push_back(static_cast<LinkId>(l));
          if (links.size() <= 6) continue;
          const LinkId l = links[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(links.size()) - 1))];
          g.remove_link(l);
          adj.patch_remove_link(g, l);
        } else if (roll < 0.70) {  // add a link between live nodes
          const auto nodes = live_nodes(g);
          const NodeId a = pick(rng, nodes);
          const NodeId b = pick(rng, nodes);
          if (a == b) continue;
          try {
            const LinkId id =
                g.add_link(a, b, rng.uniform(10.0, 100.0) * kMbps);
            adj.patch_add_link(g, id);
          } catch (const std::invalid_argument&) {
            // duplicate link rejected: graph unchanged, nothing to patch
          }
        } else if (roll < 0.88) {  // add an isolated compute host
          const NodeId id =
              g.add_compute(std::string("p").append(std::to_string(names++)));
          adj.patch_add_node(g, id);
        } else {  // isolate and remove a compute host
          std::vector<NodeId> hosts;
          for (NodeId n : live_nodes(g))
            if (g.is_compute(n)) hosts.push_back(n);
          if (hosts.size() <= 4) continue;
          const NodeId n = pick(rng, hosts);
          const auto span = g.links_of(n);
          const std::vector<LinkId> incident(span.begin(), span.end());
          for (LinkId l : incident) {
            g.remove_link(l);
            adj.patch_remove_link(g, l);
          }
          g.remove_node(n);
          adj.patch_remove_node(n);
        }
        std::vector<double> w(g.link_count()), w2(g.link_count());
        for (std::size_t l = 0; l < w.size(); ++l) {
          w[l] = static_cast<double>(rng.uniform_int(1, 4)) * kMbps;
          w2[l] = rng.uniform(0.1, 1.0);
        }
        for (std::size_t n = 0; n < g.node_count(); ++n) {
          const auto src = static_cast<NodeId>(n);
          expect_rows_identical(bottleneck_row(adj, src, w, w2),
                                bottleneck_row(g, src, w, w2),
                                inst.what + " step " + std::to_string(step) +
                                    " src " + std::to_string(n));
        }
      }
    }
  }
}

/// pair_row end to end: half the rows are built before a batch of
/// bandwidth deltas, so after sync() the pooled readers both repair stale
/// rows and build missing ones concurrently. Each row is read by kReads
/// consecutive jobs, which the pool hands to different workers, so readers
/// meet on the same row. Every read must equal the graph kernel on the
/// final weights, at every worker count.
TEST(BottleneckRow, PooledPairRowsMatchGraphKernelAfterDeltas) {
  for (std::uint64_t seed : {7u, 8u}) {
    for (const auto& inst : instances(seed)) {
      auto& snap = *inst.snap;
      const std::size_t n = snap.graph().node_count();
      util::Rng rng(seed * 11 + 1);
      for (int workers : {0, 2, 4}) {
        select::SelectionContext ctx(snap);
        for (std::size_t i = 0; i < n; i += 2)
          (void)ctx.pair_row(static_cast<NodeId>(i));
        for (std::size_t l = 0; l < snap.graph().link_count(); l += 3)
          snap.set_bw(static_cast<LinkId>(l),
                      snap.maxbw(static_cast<LinkId>(l)) *
                          rng.uniform(0.05, 1.0));
        ctx.sync();
        constexpr std::size_t kReads = 3;
        std::vector<BottleneckRow> got(kReads * n);
        util::ThreadPool pool(workers);
        util::parallel_for(pool, got.size(), [&](std::size_t k) {
          got[k] = ctx.pair_row(static_cast<NodeId>(k / kReads));
        });
        const auto bw = bw_of(snap);
        const auto f = bwfactor_of(snap);
        for (std::size_t k = 0; k < got.size(); ++k) {
          const auto src = static_cast<NodeId>(k / kReads);
          expect_rows_identical(got[k],
                                bottleneck_row(snap.graph(), src, bw, f),
                                inst.what + " workers " +
                                    std::to_string(workers) + " read " +
                                    std::to_string(k));
        }
      }
    }
  }
}

}  // namespace
}  // namespace netsel::topo
