#pragma once
// Exact branch-and-bound node selection (ROADMAP item 3).
//
// The greedy selectors (select/algorithms.hpp) optimise proxies of the true
// pairwise objective: Fig. 2's deletion loop maximises a component-level
// bandwidth threshold, Fig. 3 a component-level balanced value. The only
// committed exact oracle, select/brute_force.cpp, enumerates C(n, m)
// subsets and dies around n = 32, m = 8. This module closes the gap with a
// best-first branch-and-bound search over partial node sets that returns
// the *same bits* as the brute force wherever the brute force can run, and
// a certified upper bound on the optimum everywhere else.
//
// Semantics replicated exactly (see brute_force.cpp):
//   - pool = eligible nodes ascending by id; subsets enumerated implicitly
//     in that order;
//   - subset value: MaxCompute = min cpu, MaxBandwidth = min pairwise
//     bottleneck (cached rows, -1 sentinel for unreached pairs, +inf for
//     m = 1), Balanced = min(min cpu / cpu_priority, min frac /
//     bw_priority);
//   - min_bw_bps excludes any subset containing a pair whose absolute
//     bottleneck is below it;
//   - ties broken toward the lexicographically first subset (the brute
//     force's strict `value > best` update over lexicographic enumeration).
//
// Search: partial sets are prefixes (ascending pool indices). A popped
// prefix P with t open slots is expanded over extensions r > max(P); each
// child's priority is an admissible bound computed from the cached
// bottleneck rows: min over (exact value of P, the extension's exact terms
// against P, its best possible pair term against any future partner, and
// the (t-1)-th best such bound among the remaining indices). The open list
// is ordered by (bound desc, prefix lex asc) — a strict total order, so
// pops are deterministic at any thread count. Equal-bound subtrees survive
// only while they could still produce a lexicographically smaller optimum,
// which preserves the brute-force tie-break without exploring tie plateaus
// once the lex-first incumbent is in hand.
//
// Budgets degrade to a *certified bound*, never to failure: when
// node/time/open-list budgets trip, the incumbent is returned together
// with upper_bound = max(incumbent, best open bound, best evicted bound),
// which is sound for the true optimum by admissibility. `certified` is set
// only when the search drained the tree with nothing evicted — then
// objective IS the brute-force optimum, bit-exactly, nodes and all.

#include <cstdint>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/options.hpp"
#include "topo/graph.hpp"

namespace netsel::select {

class SelectionContext;

/// Why the search stopped.
enum class BnbStop {
  Proven,      ///< open list drained: the incumbent is optimal (or the
               ///< instance is infeasible)
  GapReached,  ///< incumbent within gap_tolerance of the running bound
  NodeBudget,  ///< ExactOptions::node_budget expansions reached
  TimeBudget,  ///< ExactOptions::time_budget_s exceeded
  PoolLimit,   ///< pool > ExactOptions::max_pool: greedy incumbent only
};

const char* bnb_stop_name(BnbStop s);

struct BnbStats {
  std::uint64_t expanded = 0;       ///< prefixes popped and expanded
  std::uint64_t pushed = 0;         ///< children pushed onto the open list
  std::uint64_t pruned_bound = 0;   ///< children cut: bound below incumbent
  std::uint64_t pruned_lex = 0;     ///< equal-bound children cut by tie rule
  std::uint64_t pool_dominated = 0; ///< candidates dropped by dominance
  std::uint64_t open_dropped = 0;   ///< frontier entries evicted (max_open)
  std::size_t pool_size = 0;        ///< candidates after dominance pruning
  bool warm_started = false;        ///< greedy incumbent seeded the search
};

struct BnbResult {
  bool feasible = false;
  /// Ascending node ids; when certified, bit-identical to
  /// brute_force_select's answer.
  std::vector<topo::NodeId> nodes;
  /// Incumbent value under brute-force semantics (0 when infeasible).
  double objective = 0.0;
  /// Sound upper bound on the optimal objective. Equals `objective` when
  /// certified; -inf when proven infeasible; +inf when the pool limit
  /// prevented any bounding work.
  double upper_bound = 0.0;
  /// True iff `objective` (and `nodes`) equal the brute-force optimum.
  bool certified = false;
  BnbStop stop = BnbStop::Proven;
  BnbStats stats;
};

/// Criterion value of an m-subset `nodes` (ascending ids, all eligible)
/// under brute-force semantics: -inf when the set violates min_bw_bps,
/// otherwise the value brute_force_select would score it with. Used by the
/// gap benches to score greedy answers on the exact scale.
double exact_set_value(const SelectionContext& ctx, const SelectionOptions& opt,
                       Criterion c, const std::vector<topo::NodeId>& nodes);

/// Best-first exact selector; reads the budgets from `opt.exact` (the
/// `enabled` flag is ignored here — calling is opting in).
class BranchAndBoundSelector {
 public:
  explicit BranchAndBoundSelector(const SelectionContext& ctx) : ctx_(&ctx) {}
  BnbResult select(Criterion c, const SelectionOptions& opt) const;

 private:
  const SelectionContext* ctx_;
};

/// Candidate mask of the exact search: a copy of `eligible` (one entry per
/// node, as returned by SelectionContext::eligibility) with every host
/// cleared that cannot appear in the brute-force answer. A degree-1 host B
/// is cleared when at least m eligible degree-1 hosts A on the same
/// attachment node have a *strictly lower node id* and weakly dominate B on
/// every objective key (available bw and fraction of their access links,
/// cpu): swapping B out for an unused dominator then never decreases any
/// pairwise bottleneck or the cpu minimum (the BFS paths beyond the shared
/// switch are identical) and always produces a lexicographically smaller
/// set. Applies for every m >= 1 (subset semantics have no per-component
/// feasibility rule). Attachment groups larger than 4096 hosts are left
/// unpruned rather than pay the quadratic dominator count.
std::vector<char> exact_dominated_candidate_mask(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    const std::vector<char>& eligible);

/// Convenience wrappers mirroring the greedy entry points.
BnbResult branch_and_bound_select(const SelectionContext& ctx,
                                  const SelectionOptions& opt, Criterion c);
BnbResult branch_and_bound_select(const remos::NetworkSnapshot& snap,
                                  const SelectionOptions& opt, Criterion c);

/// select_nodes adapter: runs the B&B and folds the outcome into a
/// SelectionResult (objective_bound / exact_certified populated, min_cpu
/// and min_bw_fraction from evaluate_set for report parity with the greedy
/// paths). Used by the dispatch when opt.exact.enabled.
SelectionResult select_exact(const SelectionContext& ctx,
                             const SelectionOptions& opt, Criterion c);

}  // namespace netsel::select
