// Figure 2 of the paper: select m nodes maximising the minimum available
// bandwidth between any pair of selected nodes.
//
// "For a set of connected nodes in an acyclic topology graph, the least
//  bandwidth between any pair of nodes in the set cannot be less than the
//  lowest edge bandwidth in the graph. Hence, by repeatedly removing the
//  minimum available bandwidth edge and testing if enough connected nodes
//  exist in the graph, the node-set that maximizes the minimum available
//  bandwidth between any pair of nodes is obtained."
//
// The paper's step 4 prints `if (l > m)`; the surrounding text makes clear
// the loop runs while a component with at least m compute nodes survives,
// so we use l >= m (verified optimal against brute force in the tests).
//
// Implementation: the deletion sequence — links ascending by (available bw,
// id), which is exactly the order the per-iteration min-edge scan produces —
// is fixed up front by the SelectionContext, and feasibility ("some
// component still holds >= m eligible nodes") is monotone non-increasing
// under deletions. So instead of one O(V+E) component sweep per deletion we
// replay the sequence *backwards* as edge insertions through a union-find
// (offline incremental connectivity): the first reverse state with a
// feasible component is the forward loop's final state, and the freshly
// merged component is its unique feasible component (before the merge no
// component qualified, and a union changes only one). Near-linear total
// instead of O(E * (V + E)); bit-identical results — see
// detail::reference_select_max_bandwidth for the literal loop this replaces
// and tests/test_select_context.cpp for the equivalence suite.

#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/detail.hpp"
#include "select/objective.hpp"
#include "select/obs.hpp"
#include "topo/connectivity.hpp"

namespace netsel::select {

SelectionResult select_max_bandwidth(const SelectionContext& ctx,
                                     const SelectionOptions& opt) {
  detail::selections_counter().inc();
  obs::ScopedTimer timer(
      detail::criterion_latency_hist(Criterion::MaxBandwidth));
  const auto& snap = ctx.snapshot();
  validate_options(snap, opt);
  const int m = opt.num_nodes;
  const auto& g = ctx.graph();

  auto elig = ctx.eligibility(opt);
  const auto& order = ctx.links_by_bw();
  const std::size_t start = ctx.first_link_at_or_above(opt.min_bw_bps);
  const std::size_t active = order.size() - start;

  SelectionResult result;

  topo::EligibleUnionFind uf(elig);
  topo::NodeId winner = topo::kInvalidNode;
  std::size_t inserted = 0;  // links present in the final feasible state

  if (uf.max_eligible() >= m) {
    // m == 1 with an eligible node: even the all-links-deleted state is
    // feasible, so the forward loop sweeps every active link away and picks
    // the lowest-id eligible singleton (the most-eligible-component rule
    // degenerates to the first singleton component).
    for (std::size_t i = 0; i < elig.size(); ++i) {
      if (elig[i]) {
        winner = static_cast<topo::NodeId>(i);
        break;
      }
    }
  } else {
    for (std::size_t i = order.size(); i-- > start;) {
      const topo::Link& lk = g.link(order[i]);
      topo::NodeId r = uf.unite(lk.a, lk.b);
      ++inserted;
      if (uf.eligible_count(r) >= m) {
        winner = r;
        break;
      }
    }
    if (winner == topo::kInvalidNode) {
      result.note = "no component with enough eligible nodes";
      return result;
    }
  }
  result.iterations = static_cast<int>(active - inserted);

  std::vector<topo::NodeId> members;
  const topo::NodeId wroot = uf.find(winner);
  for (std::size_t i = 0; i < elig.size(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (elig[i] && uf.find(n) == wroot) members.push_back(n);
  }
  result.nodes = detail::top_m_by_cpu(snap, opt, std::move(members), m);
  result.feasible = true;

  // Step 5: M is optimal; report the exact achieved figures.
  auto ev = evaluate_set(ctx, result.nodes, opt);
  result.min_cpu = ev.min_cpu;
  result.min_bw_fraction = ev.min_pair_bw_fraction;
  result.objective = ev.min_pair_bw;
  return result;
}

SelectionResult select_max_bandwidth(const remos::NetworkSnapshot& snap,
                                     const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return select_max_bandwidth(ctx, opt);
}

}  // namespace netsel::select
