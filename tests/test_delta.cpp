// The incremental-vs-rebuilt oracle for the typed-delta snapshot path:
// a long-lived SelectionContext that consumes remos::Delta journals with
// fine-grained invalidation (in-place row value repair, CSR patching,
// per-row drop on link removal) must stay *bit-identical* to a context
// rebuilt from scratch after arbitrary delta sequences — orders, component
// decompositions, bottleneck rows, selections under every criterion, and
// set evaluations. Also covers the journal mechanics (typed emission,
// bounded trimming, overflow fallback), the CSR patch-vs-rebuild equality,
// row storage stability under value-only deltas, lazy row repair (rows
// catch up with the changed-link log only when read, also from many
// threads at once), and the bounded-migration reselect layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "api/reselect.hpp"
#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "topo/connectivity.hpp"
#include "topo/generators.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel {
namespace {

struct Instance {
  std::unique_ptr<topo::TopologyGraph> graph;
  std::unique_ptr<remos::NetworkSnapshot> snap;
};

/// One small instance per synthetic family, loads applied.
Instance family_instance(int family, std::uint64_t seed) {
  Instance inst;
  inst.graph = std::make_unique<topo::TopologyGraph>([&] {
    switch (family % 3) {
      case 0: {
        topo::FatTreeOptions o;
        o.edge_switches = 4;
        o.hosts_per_edge = 5;
        o.core_switches = 2;
        o.seed = seed + 1;
        return topo::fat_tree(o);
      }
      case 1: {
        topo::CampusWanOptions o;
        o.campuses = 3;
        o.buildings_per_campus = 2;
        o.hosts_per_building = 3;
        o.seed = seed + 1;
        return topo::campus_wan(o);
      }
      default: {
        topo::RandomCoreEdgeOptions o;
        o.core_switches = 3;
        o.edge_switches = 5;
        o.hosts = 18;
        o.seed = seed + 1;
        return topo::random_core_edge(o);
      }
    }
  }());
  inst.snap = std::make_unique<remos::NetworkSnapshot>(*inst.graph);
  remos::apply_synthetic_load(*inst.snap, seed * 31 + 7);
  return inst;
}

std::vector<topo::LinkId> present_links(const topo::TopologyGraph& g) {
  std::vector<topo::LinkId> out;
  for (std::size_t l = 0; l < g.link_count(); ++l)
    if (!g.link_removed(static_cast<topo::LinkId>(l)))
      out.push_back(static_cast<topo::LinkId>(l));
  return out;
}

std::vector<topo::NodeId> present_computes(const topo::TopologyGraph& g) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

/// One random mutation of the graph+snapshot pair, spanning every delta
/// kind; notifications follow mutations in order, as the contract requires.
void random_mutation(util::Rng& rng, topo::TopologyGraph& g,
                     remos::NetworkSnapshot& snap, int& name_counter) {
  const double roll = rng.uniform(0.0, 1.0);
  if (roll < 0.50) {  // link bandwidth
    auto links = present_links(g);
    if (links.empty()) return;
    auto l = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
    snap.set_bw(l, rng.uniform(0.05, 1.0) * snap.maxbw(l));
  } else if (roll < 0.65) {  // node load / memory
    auto hosts = present_computes(g);
    if (hosts.empty()) return;
    auto n = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (rng.bernoulli(0.5))
      snap.set_loadavg(n, rng.uniform(0.0, 4.0));
    else
      snap.set_free_memory(n, rng.uniform(0.0, 2e9));
  } else if (roll < 0.75) {  // remove a link
    auto links = present_links(g);
    if (links.size() <= 6) return;  // keep the graph interesting
    auto l = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
    g.remove_link(l);
    snap.notify_link_removed(l);
  } else if (roll < 0.88) {  // add a link
    std::vector<topo::NodeId> nodes;
    for (std::size_t i = 0; i < g.node_count(); ++i)
      if (!g.node_removed(static_cast<topo::NodeId>(i)))
        nodes.push_back(static_cast<topo::NodeId>(i));
    if (nodes.size() < 2) return;
    auto a = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    auto b = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    if (a == b) return;
    try {
      auto id = g.add_link(a, b, rng.uniform(10.0, 100.0) * topo::kMbps);
      snap.notify_link_added(id);
    } catch (const std::invalid_argument&) {
      // duplicate/rejected link: mutation skipped, graph unchanged
    }
  } else if (roll < 0.95) {  // add a compute host
    auto id = g.add_compute("churn" + std::to_string(name_counter++));
    snap.notify_node_added(id);
  } else {  // isolate and remove a compute host
    auto hosts = present_computes(g);
    if (hosts.size() <= 4) return;
    auto n = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    const auto span = g.links_of(n);
        const std::vector<topo::LinkId> incident(span.begin(), span.end());
    for (topo::LinkId l : incident) {
      g.remove_link(l);
      snap.notify_link_removed(l);
    }
    g.remove_node(n);
    snap.notify_node_removed(n);
  }
}

void expect_rows_equal(const topo::BottleneckRow& a,
                       const topo::BottleneckRow& b, const std::string& what) {
  EXPECT_EQ(a.bottleneck, b.bottleneck) << what;
  EXPECT_EQ(a.bottleneck2, b.bottleneck2) << what;
  EXPECT_EQ(a.latency, b.latency) << what;
  EXPECT_EQ(a.reached, b.reached) << what;
  EXPECT_EQ(a.tree_link, b.tree_link) << what;
  EXPECT_EQ(a.order, b.order) << what;
}

constexpr select::Criterion kCriteria[] = {select::Criterion::MaxCompute,
                                           select::Criterion::MaxBandwidth,
                                           select::Criterion::Balanced};

/// The oracle: every observable of the incrementally maintained context is
/// bit-identical to a context built from scratch on the current snapshot.
void expect_matches_rebuild(const select::SelectionContext& inc,
                            const remos::NetworkSnapshot& snap,
                            const std::string& what) {
  select::SelectionContext fresh(snap);
  const auto& g = snap.graph();

  EXPECT_EQ(inc.acyclic(), fresh.acyclic()) << what;
  EXPECT_EQ(inc.link_bw(), fresh.link_bw()) << what;
  EXPECT_EQ(inc.link_bwfactor(), fresh.link_bwfactor()) << what;
  EXPECT_EQ(inc.links_by_bw(), fresh.links_by_bw()) << what;
  EXPECT_EQ(inc.links_by_bwfactor(), fresh.links_by_bwfactor()) << what;

  const topo::CsrAdjacency& ca = inc.csr();
  const topo::CsrAdjacency& cb = fresh.csr();
  EXPECT_EQ(ca.row_start, cb.row_start) << what;
  EXPECT_EQ(ca.neighbor, cb.neighbor) << what;
  EXPECT_EQ(ca.via, cb.via) << what;
  EXPECT_EQ(ca.link_latency, cb.link_latency) << what;
  EXPECT_EQ(ca.is_compute, cb.is_compute) << what;

  const topo::Components& xa = inc.base_components();
  const topo::Components& xb = fresh.base_components();
  EXPECT_EQ(xa.comp_of, xb.comp_of) << what;
  EXPECT_EQ(xa.count, xb.count) << what;
  EXPECT_EQ(xa.compute_count, xb.compute_count) << what;
  EXPECT_EQ(xa.node_count, xb.node_count) << what;

  auto hosts = present_computes(g);
  for (std::size_t i = 0; i < hosts.size() && i < 12; ++i)
    expect_rows_equal(inc.pair_row(hosts[i]), fresh.pair_row(hosts[i]),
                      what + " row " + std::to_string(hosts[i]));

  for (select::Criterion c : kCriteria) {
    select::SelectionOptions opt;
    opt.num_nodes = 4;
    auto a = select::select_nodes(c, inc, opt);
    auto b = select::select_nodes(c, fresh, opt);
    const std::string tag =
        what + " criterion " + select::criterion_name(c);
    ASSERT_EQ(a.feasible, b.feasible) << tag;
    EXPECT_EQ(a.nodes, b.nodes) << tag;
    EXPECT_EQ(a.iterations, b.iterations) << tag;
    if (a.feasible) {
      EXPECT_EQ(a.min_cpu, b.min_cpu) << tag;
      EXPECT_EQ(a.min_bw_fraction, b.min_bw_fraction) << tag;
      EXPECT_EQ(a.objective, b.objective) << tag;
      auto ea = evaluate_set(inc, a.nodes, opt);
      auto eb = evaluate_set(fresh, b.nodes, opt);
      EXPECT_EQ(ea.connected, eb.connected) << tag;
      EXPECT_EQ(ea.min_cpu, eb.min_cpu) << tag;
      EXPECT_EQ(ea.min_pair_bw, eb.min_pair_bw) << tag;
      EXPECT_EQ(ea.min_pair_bw_fraction, eb.min_pair_bw_fraction) << tag;
      EXPECT_EQ(ea.balanced, eb.balanced) << tag;
      EXPECT_EQ(ea.max_pair_latency, eb.max_pair_latency) << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Journal mechanics
// ---------------------------------------------------------------------------

TEST(DeltaJournal, MutationsEmitTypedDeltas) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto a = g.add_compute("a");
  auto b = g.add_compute("b");
  auto la = g.add_link(sw, a, topo::k100Mbps);
  auto lb = g.add_link(sw, b, topo::k100Mbps);
  remos::NetworkSnapshot snap(g);
  const std::uint64_t e0 = snap.epoch();

  snap.set_loadavg(a, 1.0);  // cpu becomes 0.5
  snap.set_free_memory(a, 123.0);
  snap.set_bw(la, 5e6);
  snap.set_bw_dir(lb, true, 7e6);
  EXPECT_EQ(snap.epoch(), e0 + 4);

  std::vector<remos::Delta> out;
  ASSERT_TRUE(snap.deltas_since(e0, out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, remos::DeltaKind::NodeLoad);
  EXPECT_EQ(out[0].node, a);
  EXPECT_DOUBLE_EQ(out[0].value, 0.5);
  EXPECT_EQ(out[1].kind, remos::DeltaKind::NodeMemory);
  EXPECT_DOUBLE_EQ(out[1].value, 123.0);
  EXPECT_EQ(out[2].kind, remos::DeltaKind::LinkBandwidth);
  EXPECT_EQ(out[2].link, la);
  EXPECT_DOUBLE_EQ(out[2].value, 5e6);
  EXPECT_EQ(out[3].kind, remos::DeltaKind::LinkBandwidth);
  EXPECT_EQ(out[3].link, lb);
  EXPECT_DOUBLE_EQ(out[3].value, 7e6);  // min over the two directions
  EXPECT_FALSE(remos::delta_is_structural(out[0].kind));

  const std::uint64_t e1 = snap.epoch();
  auto c = g.add_compute("c");
  snap.notify_node_added(c);
  auto lc = g.add_link(sw, c, topo::k100Mbps);
  snap.notify_link_added(lc);
  g.remove_link(la);
  snap.notify_link_removed(la);
  out.clear();
  ASSERT_TRUE(snap.deltas_since(e1, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, remos::DeltaKind::NodeAdded);
  EXPECT_EQ(out[0].node, c);
  EXPECT_EQ(out[1].kind, remos::DeltaKind::LinkAdded);
  EXPECT_EQ(out[1].link, lc);
  EXPECT_EQ(out[2].kind, remos::DeltaKind::LinkRemoved);
  EXPECT_EQ(out[2].link, la);
  for (const auto& d : out) {
    EXPECT_TRUE(remos::delta_is_structural(d.kind));
    EXPECT_NE(remos::delta_kind_name(d.kind), nullptr);
  }
  EXPECT_DOUBLE_EQ(snap.bw(la), 0.0);  // tombstoned link reports zero

  // Since-now is valid and appends nothing; the future throws.
  out.clear();
  EXPECT_TRUE(snap.deltas_since(snap.epoch(), out));
  EXPECT_TRUE(out.empty());
  EXPECT_THROW(snap.deltas_since(snap.epoch() + 1, out),
               std::invalid_argument);
}

TEST(DeltaJournal, BoundedJournalTrimsOldest) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  auto a = g.add_compute("a");
  auto l = g.add_link(sw, a, topo::k100Mbps);
  remos::NetworkSnapshot snap(g);
  snap.set_delta_journal_capacity(3);
  EXPECT_EQ(snap.delta_journal_capacity(), 3u);

  for (int i = 1; i <= 5; ++i) snap.set_bw(l, 1e6 * i);
  std::vector<remos::Delta> out;
  // The three most recent deltas are retained...
  ASSERT_TRUE(snap.deltas_since(snap.epoch() - 3, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].value, 3e6);
  EXPECT_DOUBLE_EQ(out[2].value, 5e6);
  // ...anything older has been trimmed.
  out.clear();
  EXPECT_FALSE(snap.deltas_since(snap.epoch() - 4, out));
  EXPECT_TRUE(out.empty());

  // Capacity zero: the epoch still moves, every catch-up is a rebuild.
  snap.set_delta_journal_capacity(0);
  snap.set_bw(l, 9e6);
  EXPECT_FALSE(snap.deltas_since(snap.epoch() - 1, out));
  EXPECT_TRUE(snap.deltas_since(snap.epoch(), out));
}

// ---------------------------------------------------------------------------
// CSR patching
// ---------------------------------------------------------------------------

TEST(CsrPatching, RandomMutationSequencesMatchRebuild) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    topo::RandomCoreEdgeOptions o;
    o.core_switches = 3;
    o.edge_switches = 4;
    o.hosts = 12;
    o.seed = seed + 1;
    topo::TopologyGraph g = topo::random_core_edge(o);
    topo::CsrAdjacency patched = topo::CsrAdjacency::build(g);
    util::Rng rng(seed * 271 + 9);
    int names = 0;
    for (int step = 0; step < 30; ++step) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.35) {
        auto links = present_links(g);
        if (links.size() <= 4) continue;
        auto l = links[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(links.size()) - 1))];
        g.remove_link(l);
        patched.patch_remove_link(g, l);
      } else if (roll < 0.70) {
        auto an = static_cast<topo::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
        auto bn = static_cast<topo::NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
        if (an == bn || g.node_removed(an) || g.node_removed(bn)) continue;
        auto id = g.add_link(an, bn, topo::k100Mbps);
        patched.patch_add_link(g, id);
      } else if (roll < 0.9) {
        auto id = g.add_compute("p" + std::to_string(names++));
        patched.patch_add_node(g, id);
      } else {
        auto hosts = present_computes(g);
        if (hosts.size() <= 4) continue;
        auto n = hosts[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(hosts.size()) - 1))];
        const auto span = g.links_of(n);
        const std::vector<topo::LinkId> incident(span.begin(), span.end());
        for (topo::LinkId l : incident) {
          g.remove_link(l);
          patched.patch_remove_link(g, l);
        }
        g.remove_node(n);
        patched.patch_remove_node(n);
      }
      topo::CsrAdjacency rebuilt = topo::CsrAdjacency::build(g);
      const std::string what =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(patched.row_start, rebuilt.row_start) << what;
      ASSERT_EQ(patched.neighbor, rebuilt.neighbor) << what;
      ASSERT_EQ(patched.via, rebuilt.via) << what;
      ASSERT_EQ(patched.link_latency, rebuilt.link_latency) << what;
      ASSERT_EQ(patched.is_compute, rebuilt.is_compute) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// The incremental-vs-rebuilt oracle
// ---------------------------------------------------------------------------

TEST(IncrementalOracle, FuzzDeltaSequencesBitIdenticalToRebuild) {
  for (int family = 0; family < 3; ++family) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      auto inst = family_instance(family, seed);
      util::Rng rng(seed * 9176 + static_cast<std::uint64_t>(family));
      select::SelectionContext ctx(*inst.snap);
      // Warm every cache first so the deltas exercise repair and patching,
      // not cold builds.
      expect_matches_rebuild(ctx, *inst.snap, "warmup");
      int names = 0;
      for (int step = 0; step < 32; ++step) {
        random_mutation(rng, *inst.graph, *inst.snap, names);
        // Check both single-delta and batched catch-up windows.
        if (step % 4 == 3 || step == 31) {
          expect_matches_rebuild(
              ctx, *inst.snap,
              "family " + std::to_string(family) + " seed " +
                  std::to_string(seed) + " step " + std::to_string(step));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(IncrementalOracle, JournalOverflowFallsBackToFullRebuild) {
  auto inst = family_instance(0, 11);
  inst.snap->set_delta_journal_capacity(3);
  select::SelectionContext ctx(*inst.snap);
  expect_matches_rebuild(ctx, *inst.snap, "warmup");
  util::Rng rng(77);
  int names = 0;
  // Far more deltas than the journal retains: catch-up must take the
  // drop-everything path and still be correct.
  for (int step = 0; step < 10; ++step)
    random_mutation(rng, *inst.graph, *inst.snap, names);
  expect_matches_rebuild(ctx, *inst.snap, "after overflow");
}

TEST(IncrementalOracle, ValueDeltasKeepRowStorage) {
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  std::vector<topo::NodeId> h;
  std::vector<topo::LinkId> hl;
  for (int i = 0; i < 4; ++i) {
    h.push_back(g.add_compute("h" + std::to_string(i)));
    hl.push_back(g.add_link(sw, h.back(), topo::k100Mbps));
  }
  remos::NetworkSnapshot snap(g);
  select::SelectionContext ctx(snap);
  const topo::BottleneckRow* row = &ctx.pair_row(h[0]);

  // Node sensor deltas invalidate nothing.
  snap.set_loadavg(h[1], 2.0);
  EXPECT_EQ(&ctx.pair_row(h[0]), row);

  // A bandwidth delta on a tree link repairs the row in place: same
  // storage, updated values.
  snap.set_bw(hl[1], 40e6);
  EXPECT_EQ(&ctx.pair_row(h[0]), row);
  EXPECT_DOUBLE_EQ(
      ctx.pair_row(h[0]).bottleneck[static_cast<std::size_t>(h[1])], 40e6);
  {
    select::SelectionContext fresh(snap);
    expect_rows_equal(ctx.pair_row(h[0]), fresh.pair_row(h[0]), "post-bw");
  }

  // A host added elsewhere extends the row in place (one unreached entry).
  auto extra = g.add_compute("extra");
  snap.notify_node_added(extra);
  EXPECT_EQ(&ctx.pair_row(h[0]), row);
  EXPECT_EQ(row->bottleneck.size(), g.node_count());
  EXPECT_EQ(row->reached[static_cast<std::size_t>(extra)], 0);
  {
    select::SelectionContext fresh(snap);
    expect_rows_equal(ctx.pair_row(h[0]), fresh.pair_row(h[0]), "post-add");
  }
}

TEST(IncrementalOracle, WarmedRowsStayConsistentAcrossDeltas) {
  auto inst = family_instance(0, 3);
  util::ThreadPool pool(2);
  select::SelectionContext ctx(*inst.snap);
  ctx.sync();
  const auto hosts = present_computes(*inst.graph);
  util::parallel_for(pool, hosts.size(),
                     [&](std::size_t i) { (void)ctx.pair_row(hosts[i]); });
  auto links = present_links(*inst.graph);
  inst.snap->set_bw(links[1], 0.5 * inst.snap->maxbw(links[1]));
  inst.snap->set_bw(links[3], 0.25 * inst.snap->maxbw(links[3]));
  expect_matches_rebuild(ctx, *inst.snap, "after warm+delta");
}

// ---------------------------------------------------------------------------
// Lazy row repair: a bandwidth delta only logs the changed link; each row
// catches up when it is next read. Every row built so far must equal a
// fresh build whenever it is read, however long it sat behind the log.
// ---------------------------------------------------------------------------

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// The obs registry on for one scope: the counter assertions need it.
struct ObsOn {
  bool was = obs::enabled();
  ObsOn() { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was); }
};

/// Reads every row of `sources` (skipping removed nodes) from `ctx` and
/// compares it bit for bit with a fresh context's.
void expect_rows_match_fresh(const select::SelectionContext& ctx,
                             const remos::NetworkSnapshot& snap,
                             const std::vector<topo::NodeId>& sources,
                             const std::string& what) {
  select::SelectionContext fresh(snap);
  for (topo::NodeId s : sources) {
    if (snap.graph().node_removed(s)) continue;
    expect_rows_equal(ctx.pair_row(s), fresh.pair_row(s),
                      what + " row " + std::to_string(s));
  }
}

topo::LinkId random_link(util::Rng& rng, const topo::TopologyGraph& g) {
  const auto links = present_links(g);
  return links[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
}

/// One refresh: `n` bandwidth writes on random present links.
void bw_refresh(util::Rng& rng, remos::NetworkSnapshot& snap, int n) {
  for (int i = 0; i < n; ++i) {
    const topo::LinkId l = random_link(rng, snap.graph());
    snap.set_bw(l, rng.uniform(0.05, 1.0) * snap.maxbw(l));
  }
}

/// A family instance with a context whose rows are built for every host.
struct LazyCase {
  Instance inst;
  std::unique_ptr<select::SelectionContext> ctx;
  std::vector<topo::NodeId> hosts;
  LazyCase(int family, std::uint64_t seed)
      : inst(family_instance(family, seed)) {
    ctx = std::make_unique<select::SelectionContext>(*inst.snap);
    hosts = present_computes(*inst.graph);
    for (topo::NodeId h : hosts) ctx->pair_row(h);
  }
  std::string tag(int family, std::uint64_t seed) const {
    return "family " + std::to_string(family) + " seed " +
           std::to_string(seed);
  }
};

TEST(LazyRepair, RowsReadOnlyEveryKthRefreshMatchRebuild) {
  for (int family = 0; family < 3; ++family) {
    for (int k : {1, 2, 3, 5}) {
      const auto seed = static_cast<std::uint64_t>(40 + k);
      LazyCase c(family, seed);
      util::Rng rng(seed * 131 + static_cast<std::uint64_t>(family));
      for (int refresh = 1; refresh <= 12; ++refresh) {
        bw_refresh(rng, *c.inst.snap, 6);
        c.ctx->sync();  // serial catch-up: the rows stay behind the log
        if (refresh % k == 0)
          expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts,
                                  c.tag(family, seed) + " k " +
                                      std::to_string(k) + " refresh " +
                                      std::to_string(refresh));
        // One rotating extra read leaves rows at different log positions.
        c.ctx->pair_row(
            c.hosts[static_cast<std::size_t>(refresh) % c.hosts.size()]);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LazyRepair, OneLinkChangedManyTimesBetweenReads) {
  for (int family = 0; family < 3; ++family) {
    LazyCase c(family, 7);
    // A link on the first host's tree: most rows route over it or its
    // neighbours.
    const topo::BottleneckRow& row0 = c.ctx->pair_row(c.hosts[0]);
    const topo::LinkId l =
        row0.tree_link[static_cast<std::size_t>(row0.order.back())];
    ASSERT_NE(l, topo::kInvalidLink);
    util::Rng rng(900 + static_cast<std::uint64_t>(family));
    for (int i = 0; i < 40; ++i) {
      c.inst.snap->set_bw(l, rng.uniform(0.05, 1.0) * c.inst.snap->maxbw(l));
      if (i % 7 == 0) c.ctx->sync();
    }
    expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts,
                            c.tag(family, 7) + " one link");
  }
}

// The coalescing contract: N deltas on one link followed by one read cost
// that row exactly one repair, and nothing is repaired before the read.
TEST(LazyRepair, NDeltasOnOneLinkCostOneRepairPerRow) {
  ObsOn obs_on;
  topo::TopologyGraph g;
  auto sw = g.add_network("sw");
  std::vector<topo::NodeId> h;
  std::vector<topo::LinkId> hl;
  // More links than deltas: the log stays under its flush limit.
  constexpr int kN = 25;
  for (int i = 0; i < kN + 7; ++i) {
    h.push_back(g.add_compute("h" + std::to_string(i)));
    hl.push_back(g.add_link(sw, h.back(), topo::k100Mbps));
  }
  remos::NetworkSnapshot snap(g);
  select::SelectionContext ctx(snap);
  ctx.pair_row(h[0]);  // the only built row; its tree uses every link
  const std::uint64_t before = counter_value("select.ctx.rows.repaired");
  // A catch-up after every delta, so each one lands in the log (deltas
  // consumed in one catch-up already converge on the final weight).
  for (int i = 1; i <= kN; ++i) {
    snap.set_bw(hl[1], 1e6 * i);
    ctx.sync();
  }
  EXPECT_EQ(counter_value("select.ctx.rows.repaired"), before);
  EXPECT_EQ(obs::Registry::global().gauge("select.ctx.log.pending").value(),
            static_cast<double>(kN));
  const topo::BottleneckRow& row = ctx.pair_row(h[0]);
  EXPECT_EQ(counter_value("select.ctx.rows.repaired"), before + 1);
  EXPECT_DOUBLE_EQ(row.bottleneck[static_cast<std::size_t>(h[1])], kN * 1e6);
  ctx.pair_row(h[0]);  // current now: a plain hit
  EXPECT_EQ(counter_value("select.ctx.rows.repaired"), before + 1);
  select::SelectionContext fresh(snap);
  expect_rows_equal(row, fresh.pair_row(h[0]), "coalesced");
}

TEST(LazyRepair, PendingLinkThenRemoved) {
  for (int family = 0; family < 3; ++family) {
    for (bool sync_between : {false, true}) {
      LazyCase c(family, 13);
      util::Rng rng(77 + static_cast<std::uint64_t>(family));
      const topo::LinkId l = random_link(rng, *c.inst.graph);
      c.inst.snap->set_bw(l, 0.3 * c.inst.snap->maxbw(l));
      bw_refresh(rng, *c.inst.snap, 4);
      if (sync_between) c.ctx->sync();
      c.inst.graph->remove_link(l);
      c.inst.snap->notify_link_removed(l);
      bw_refresh(rng, *c.inst.snap, 3);  // pending again after the flush
      expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts,
                              c.tag(family, 13) + " removed" +
                                  (sync_between ? " (synced)" : ""));
      expect_matches_rebuild(*c.ctx, *c.inst.snap,
                             c.tag(family, 13) + " removed, full oracle");
    }
  }
}

TEST(LazyRepair, NodeOrLinkAddedWhileEntriesPending) {
  for (int family = 0; family < 3; ++family) {
    for (bool add_link : {false, true}) {
      LazyCase c(family, 17);
      util::Rng rng(31 + static_cast<std::uint64_t>(family));
      bw_refresh(rng, *c.inst.snap, 5);
      c.ctx->sync();
      auto n = c.inst.graph->add_compute("late");
      c.inst.snap->notify_node_added(n);
      if (add_link) {
        auto id = c.inst.graph->add_link(c.hosts[0], n, topo::k100Mbps);
        c.inst.snap->notify_link_added(id);
      }
      bw_refresh(rng, *c.inst.snap, 3);
      c.ctx->sync();
      const std::string what = c.tag(family, 17) +
                               (add_link ? " link added" : " node added");
      expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts, what);
      expect_matches_rebuild(*c.ctx, *c.inst.snap, what + ", full oracle");
    }
  }
}

TEST(LazyRepair, LogCrossingItsFlushLimit) {
  ObsOn obs_on;
  for (int family = 0; family < 3; ++family) {
    LazyCase c(family, 23);
    const std::size_t links = c.inst.graph->link_count();
    const std::uint64_t flushes0 = counter_value("select.ctx.rows.flushes");
    util::Rng rng(5 + static_cast<std::uint64_t>(family));
    // Well past the link count, read only now and then: entries pile up
    // behind the unread rows until the limit flushes them.
    const int refreshes = static_cast<int>(3 * links / 4) + 2;
    for (int r = 0; r < refreshes; ++r) {
      bw_refresh(rng, *c.inst.snap, 4);
      c.ctx->sync();
      EXPECT_LE(obs::Registry::global().gauge("select.ctx.log.pending").value(),
                static_cast<double>(links));
      if (r % 9 == 8) c.ctx->pair_row(c.hosts[0]);
    }
    EXPECT_GT(counter_value("select.ctx.rows.flushes"), flushes0);
    expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts,
                            c.tag(family, 23) + " past flush limit");
  }
}

TEST(LazyRepair, TrimmedJournalWhileEntriesPending) {
  ObsOn obs_on;
  for (int family = 0; family < 3; ++family) {
    LazyCase c(family, 29);
    c.inst.snap->set_delta_journal_capacity(4);
    util::Rng rng(11 + static_cast<std::uint64_t>(family));
    bw_refresh(rng, *c.inst.snap, 3);
    c.ctx->sync();  // three entries pending behind every row
    const std::uint64_t inval0 = counter_value("select.ctx.invalidations");
    bw_refresh(rng, *c.inst.snap, 9);  // more than the journal keeps
    c.ctx->sync();
    EXPECT_EQ(counter_value("select.ctx.invalidations"), inval0 + 1);
    EXPECT_EQ(obs::Registry::global().gauge("select.ctx.log.pending").value(),
              0.0);
    expect_rows_match_fresh(*c.ctx, *c.inst.snap, c.hosts,
                            c.tag(family, 29) + " trimmed journal");
    bw_refresh(rng, *c.inst.snap, 2);  // lazy again after the rebuild
    expect_matches_rebuild(*c.ctx, *c.inst.snap,
                           c.tag(family, 29) + " after rebuild");
  }
}

// After a batch of deltas and the serial catch-up, many threads read one
// context at once. The readers start together and walk the same rows, so
// they meet on rows still behind the log. Every read must equal the serial
// run's.
TEST(LazyRepair, ConcurrentReadersMatchSerialRun) {
  // Large enough that a row's catch-up (one repair per changed access link
  // in its tree) outlasts the readers' start-up skew.
  const topo::TopologyGraph g =
      topo::fat_tree(topo::fat_tree_for_hosts(256, 16, 2.0, 21));
  remos::NetworkSnapshot snap(g);
  remos::apply_synthetic_load(snap, 21);
  const auto hosts = present_computes(g);
  const std::size_t H = hosts.size();
  select::SelectionContext shared(snap);
  select::SelectionContext serial(snap);
  for (topo::NodeId h : hosts) {
    shared.pair_row(h);
    serial.pair_row(h);
  }
  struct Read {
    std::vector<double> bottleneck, bottleneck2;
    select::SetEvaluation eval;
  };
  // Read t: the rows of four hosts a quarter of the fabric apart, and
  // their evaluation as a set.
  auto read = [&](const select::SelectionContext& ctx, std::size_t t) {
    std::vector<topo::NodeId> set;
    for (std::size_t j = 0; j < 4; ++j)
      set.push_back(hosts[(t + j * H / 4) % H]);
    std::sort(set.begin(), set.end());
    Read r;
    for (topo::NodeId s : set) {
      const topo::BottleneckRow& row = ctx.pair_row(s);
      r.bottleneck.insert(r.bottleneck.end(), row.bottleneck.begin(),
                          row.bottleneck.end());
      r.bottleneck2.insert(r.bottleneck2.end(), row.bottleneck2.begin(),
                           row.bottleneck2.end());
    }
    r.eval = select::evaluate_set(ctx, set, select::SelectionOptions{});
    return r;
  };
  constexpr std::size_t kReaders = 4;
  util::ThreadPool pool(static_cast<int>(kReaders));
  util::Rng rng(2024);
  const std::size_t reads = H / 4;  // together they cover every host
  for (int round = 0; round < 6; ++round) {
    bw_refresh(rng, snap, 96);
    shared.sync();
    std::vector<Read> expect(reads);
    for (std::size_t t = 0; t < reads; ++t) expect[t] = read(serial, t);
    std::vector<std::vector<Read>> got(kReaders, std::vector<Read>(reads));
    // Four tasks on four workers (plus the helping caller): each task holds
    // its thread at the latch until all four run.
    std::latch start(static_cast<std::ptrdiff_t>(kReaders));
    util::parallel_for(pool, kReaders, [&](std::size_t r) {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < reads; ++k) {
        const std::size_t t = r % 2 ? reads - 1 - k : k;
        got[r][t] = read(shared, t);
      }
    });
    for (std::size_t r = 0; r < kReaders; ++r) {
      for (std::size_t t = 0; t < reads; ++t) {
        const std::string what = "round " + std::to_string(round) +
                                 " reader " + std::to_string(r) + " read " +
                                 std::to_string(t);
        const Read& a = got[r][t];
        const Read& b = expect[t];
        EXPECT_EQ(a.bottleneck, b.bottleneck) << what;
        EXPECT_EQ(a.bottleneck2, b.bottleneck2) << what;
        EXPECT_EQ(a.eval.connected, b.eval.connected) << what;
        EXPECT_EQ(a.eval.min_cpu, b.eval.min_cpu) << what;
        EXPECT_EQ(a.eval.min_pair_bw, b.eval.min_pair_bw) << what;
        EXPECT_EQ(a.eval.min_pair_bw_fraction, b.eval.min_pair_bw_fraction)
            << what;
        EXPECT_EQ(a.eval.balanced, b.eval.balanced) << what;
        EXPECT_EQ(a.eval.max_pair_latency, b.eval.max_pair_latency) << what;
      }
    }
  }
  expect_rows_match_fresh(shared, snap, hosts, "after concurrent reads");
}

// ---------------------------------------------------------------------------
// Bounded-migration reselect
// ---------------------------------------------------------------------------

TEST(Reselect, UnboundedAdoptsTheOptimum) {
  auto inst = family_instance(0, 21);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 6);

  api::ReselectOptions opt;
  opt.criterion = select::Criterion::Balanced;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);

  select::SelectionOptions sopt;
  sopt.num_nodes = 6;
  auto best = select::select_nodes(select::Criterion::Balanced, ctx, sopt);
  auto sorted_best = best.nodes;
  std::sort(sorted_best.begin(), sorted_best.end());
  EXPECT_EQ(res.nodes, sorted_best);
  EXPECT_EQ(res.migrations, static_cast<int>(res.migrated_in.size()));
  EXPECT_EQ(res.migrated_in.size(), res.migrated_out.size());
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_unbounded);
}

TEST(Reselect, ZeroBudgetKeepsAnEligiblePlacement) {
  auto inst = family_instance(1, 5);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 4);

  api::ReselectOptions opt;
  opt.max_migrations = 0;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.nodes, current);
  EXPECT_EQ(res.migrations, 0);
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_before);
}

TEST(Reselect, BudgetBoundsMigrationsAndNeverHurts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto inst = family_instance(static_cast<int>(seed % 3), seed + 40);
    select::SelectionContext ctx(*inst.snap);
    auto hosts = present_computes(*inst.graph);
    // A deliberately bad starting placement: the last hosts by id.
    std::vector<topo::NodeId> current(hosts.end() - 5, hosts.end());
    for (int budget : {0, 1, 2, 4}) {
      api::ReselectOptions opt;
      opt.max_migrations = budget;
      auto res = api::reselect(ctx, current, opt);
      ASSERT_TRUE(res.feasible) << seed << " budget " << budget;
      EXPECT_LE(res.migrations, budget) << seed;
      EXPECT_GE(res.objective_after, res.objective_before) << seed;
      // The unconstrained "optimum" is itself a greedy heuristic, so a
      // bounded swap sequence can beat it — only require it to be positive.
      EXPECT_GT(res.objective_unbounded, 0.0) << seed;
      EXPECT_EQ(res.nodes.size(), current.size()) << seed;
    }
  }
}

TEST(Reselect, IneligibleMembersAreReplacedDespiteZeroBudget) {
  auto inst = family_instance(0, 9);
  auto& g = *inst.graph;
  auto& snap = *inst.snap;
  select::SelectionContext ctx(snap);
  auto hosts = present_computes(g);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 5);

  // Tear the first member out of the fabric entirely.
  const topo::NodeId victim = current[0];
  const auto span = g.links_of(victim);
  const std::vector<topo::LinkId> incident(span.begin(), span.end());
  for (topo::LinkId l : incident) {
    g.remove_link(l);
    snap.notify_link_removed(l);
  }
  g.remove_node(victim);
  snap.notify_node_removed(victim);

  api::ReselectOptions opt;
  opt.max_migrations = 0;
  auto res = api::reselect(ctx, current, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.nodes.size(), current.size());
  EXPECT_FALSE(std::count(res.nodes.begin(), res.nodes.end(), victim));
  EXPECT_EQ(res.migrations, 1);  // the forced replacement, despite budget 0
  ASSERT_EQ(res.migrated_out.size(), 1u);
  EXPECT_EQ(res.migrated_out[0], victim);
}

TEST(Reselect, InfeasibleSelectionKeepsCurrentAndSaysSo) {
  // When the unconstrained selection is infeasible the current placement
  // stays in force: kept_current is the explicit signal, nodes are the
  // unchanged current set, and objective_after scores that kept set (it
  // must NOT report 0 — the job is still running there). The second
  // early-exit (refill exhaustion) shares the same contract but is
  // defensive: the optimum always has enough members to refill from.
  auto inst = family_instance(2, 13);
  select::SelectionContext ctx(*inst.snap);
  auto hosts = present_computes(*inst.graph);
  std::vector<topo::NodeId> current(hosts.begin(), hosts.begin() + 4);
  std::sort(current.begin(), current.end());

  api::ReselectOptions opt;
  opt.max_migrations = 2;
  // Impossible fixed requirement: no host is eligible, selection infeasible.
  opt.selection.min_cpu_fraction = 2.0;
  auto res = api::reselect(ctx, current, opt);
  EXPECT_FALSE(res.feasible);
  EXPECT_TRUE(res.kept_current);
  EXPECT_EQ(res.nodes, current);
  EXPECT_EQ(res.migrations, 0);
  EXPECT_TRUE(res.migrated_in.empty());
  EXPECT_TRUE(res.migrated_out.empty());
  EXPECT_GT(res.objective_before, 0.0);
  EXPECT_DOUBLE_EQ(res.objective_after, res.objective_before);
  EXPECT_NE(res.note.find("keeping"), std::string::npos) << res.note;

  // A reselection that actually ran never reports kept_current.
  api::ReselectOptions ok;
  ok.max_migrations = 2;
  auto solved = api::reselect(ctx, current, ok);
  ASSERT_TRUE(solved.feasible);
  EXPECT_FALSE(solved.kept_current);
}

TEST(Reselect, ScoreMatchesCriterion) {
  select::SetEvaluation ev;
  ev.connected = true;
  ev.min_cpu = 0.25;
  ev.min_pair_bw = 5e6;
  ev.balanced = 0.125;
  EXPECT_DOUBLE_EQ(
      api::criterion_score(select::Criterion::MaxCompute, ev), 0.25);
  EXPECT_DOUBLE_EQ(
      api::criterion_score(select::Criterion::MaxBandwidth, ev), 5e6);
  EXPECT_DOUBLE_EQ(api::criterion_score(select::Criterion::Balanced, ev),
                   0.125);
  ev.connected = false;
  EXPECT_DOUBLE_EQ(api::criterion_score(select::Criterion::Balanced, ev), 0.0);
}

}  // namespace
}  // namespace netsel
