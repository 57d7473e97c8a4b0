#include "select/bnb.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "select/obs.hpp"

namespace netsel::select {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct BnbMetrics {
  obs::Counter& selections;
  obs::Counter& expanded;
  obs::Counter& pushed;
  obs::Counter& pruned_bound;
  obs::Counter& pruned_lex;
  obs::Counter& pool_dominated;
  obs::Counter& open_dropped;
  obs::Counter& certified;
  obs::Counter& budget_hits;
  obs::Histogram& latency;
};

BnbMetrics& bnb_metrics() {
  static BnbMetrics m{
      obs::Registry::global().counter("select.bnb.selections"),
      obs::Registry::global().counter("select.bnb.expanded"),
      obs::Registry::global().counter("select.bnb.pushed"),
      obs::Registry::global().counter("select.bnb.pruned_bound"),
      obs::Registry::global().counter("select.bnb.pruned_lex"),
      obs::Registry::global().counter("select.bnb.pool_dominated"),
      obs::Registry::global().counter("select.bnb.open_dropped"),
      obs::Registry::global().counter("select.bnb.certified"),
      obs::Registry::global().counter("select.bnb.budget_hits"),
      obs::Registry::global().histogram("select.latency_s.bnb",
                                        obs::exp_buckets(1e-6, 4.0, 12)),
  };
  return m;
}

/// An open-list entry: a partial selection (ascending pool indices), its
/// exact value so far, and the admissible bound its parent computed for it.
struct Open {
  double ub;
  double value;
  std::vector<std::uint16_t> prefix;
};

bool lex_less(const std::vector<std::uint16_t>& a,
              const std::vector<std::uint16_t>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// "a is explored before b": bound descending, then prefix lexicographic
/// ascending. Distinct prefixes make this a strict total order, so the pop
/// sequence is deterministic regardless of heap layout.
bool explores_before(const Open& a, const Open& b) {
  if (a.ub != b.ub) return a.ub > b.ub;
  return lex_less(a.prefix, b.prefix);
}

/// std::*_heap comparator ("less": max-heap keeps the next pop at front).
bool heap_less(const Open& a, const Open& b) { return explores_before(b, a); }

enum class Cut { Keep, Bound, Lex };

struct Search {
  const SelectionContext& ctx;
  const SelectionOptions& opt;
  Criterion crit;
  std::size_t m;

  std::vector<topo::NodeId> pool;  // candidates, ascending by id
  std::size_t P = 0;
  std::vector<double> node_term;  // per-index single-node objective term
  std::vector<double> pair_term;  // P*P pairwise term (+inf when unused)
  std::vector<char> pair_ok;      // P*P min_bw feasibility
  std::vector<double> best_pair;  // max feasible pair term per index

  // Incumbent. Floor mode (has_set false, best > -inf) carries a value
  // known to be achievable — a greedy warm start that routed through a
  // dominance-pruned candidate — without a pool-index identity: it prunes
  // strictly worse subtrees but never equal-value ones, so the search can
  // still recover the lexicographically-first optimal set.
  bool has_set = false;
  double best = -kInf;
  std::vector<std::uint16_t> best_set;
  std::vector<topo::NodeId> floor_nodes;

  std::vector<Open> open;
  double dropped_ub = -kInf;
  BnbStats stats;
  BnbStop stop = BnbStop::Proven;
  bool budget_stop = false;

  // expansion scratch, sized P once
  std::vector<double> ext_exact, ext_bound, kth;
  std::vector<char> ext_ok;

  Search(const SelectionContext& c, const SelectionOptions& o, Criterion cr)
      : ctx(c), opt(o), crit(cr), m(static_cast<std::size_t>(o.num_nodes)) {}

  double pt(std::size_t i, std::size_t j) const { return pair_term[i * P + j]; }
  bool pok(std::size_t i, std::size_t j) const {
    return pair_ok[i * P + j] != 0;
  }

  std::size_t effective_max_pool() const {
    // uint16_t pool indices: 65535 is a hard cap; 0 means "no user cap".
    const std::size_t hard = 65535;
    return opt.exact.max_pool == 0 ? hard
                                   : std::min(opt.exact.max_pool, hard);
  }

  void build_pool() {
    auto eligible = ctx.eligibility(opt);
    std::size_t eligible_count = 0;
    for (char e : eligible) eligible_count += e ? 1 : 0;
    std::vector<char> cand = eligible;
    if (opt.exact.prune_dominance && eligible_count >= m)
      cand = exact_dominated_candidate_mask(ctx.snapshot(), opt, eligible);
    pool.clear();
    for (std::size_t i = 0; i < cand.size(); ++i)
      if (cand[i]) pool.push_back(static_cast<topo::NodeId>(i));
    // Feasibility is judged on the full eligible set; the dominance mask
    // keeps >= m candidates per group, so pool.size() >= m iff
    // eligible_count >= m.
    stats.pool_dominated = eligible_count - pool.size();
    stats.pool_size = pool.size();
    P = pool.size();
  }

  void build_terms() {
    const auto& snap = ctx.snapshot();
    node_term.assign(P, kInf);
    pair_term.assign(P * P, kInf);
    pair_ok.assign(P * P, 1);
    best_pair.assign(P, -kInf);
    std::vector<double> cpu(P);
    for (std::size_t i = 0; i < P; ++i)
      cpu[i] = node_cpu(snap, pool[i], opt);
    switch (crit) {
      case Criterion::MaxCompute:
        for (std::size_t i = 0; i < P; ++i) node_term[i] = cpu[i];
        break;
      case Criterion::MaxBandwidth:
        break;  // node_term stays +inf (matches the brute force's m=1 value)
      case Criterion::Balanced:
        // Division by a positive priority is monotone, so distributing it
        // over the min is bit-exact vs the brute force's divide-after-min.
        for (std::size_t i = 0; i < P; ++i)
          node_term[i] = cpu[i] / opt.cpu_priority;
        break;
    }
    // Pairwise terms come from the *lower-id* endpoint's cached row — the
    // exact orientation brute_force_select uses — stored symmetrically.
    for (std::size_t i = 0; i < P; ++i) {
      const auto& row = ctx.pair_row(pool[i]);
      for (std::size_t j = i + 1; j < P; ++j) {
        const auto dst = pool[j];
        const auto v = static_cast<std::size_t>(dst);
        double abs = -1.0;
        double frac = -1.0;
        if (row.reached[v]) {
          abs = row.bottleneck[v];
          frac = SelectionContext::row_fraction(row, dst, opt);
        }
        const bool ok = opt.min_bw_bps <= 0.0 || abs >= opt.min_bw_bps;
        double term = kInf;
        if (crit == Criterion::MaxBandwidth) term = abs;
        if (crit == Criterion::Balanced) term = frac / opt.bw_priority;
        pair_term[i * P + j] = term;
        pair_term[j * P + i] = term;
        pair_ok[i * P + j] = ok ? 1 : 0;
        pair_ok[j * P + i] = ok ? 1 : 0;
        if (ok) {
          best_pair[i] = std::max(best_pair[i], term);
          best_pair[j] = std::max(best_pair[j], term);
        }
      }
    }
  }

  void warm_start() {
    SelectionResult g;
    switch (crit) {
      case Criterion::MaxCompute: g = select_max_compute(ctx, opt); break;
      case Criterion::MaxBandwidth: g = select_max_bandwidth(ctx, opt); break;
      case Criterion::Balanced: g = select_balanced(ctx, opt); break;
    }
    if (!g.feasible || g.nodes.size() != m) return;
    std::vector<topo::NodeId> nodes = g.nodes;
    std::sort(nodes.begin(), nodes.end());
    // Score the greedy set on the exact scale; a greedy answer can violate
    // the *pairwise* min_bw on cyclic graphs (its guarantee is
    // component-level), in which case it seeds nothing.
    const double v = exact_set_value(ctx, opt, crit, nodes);
    if (v == -kInf) return;
    stats.warm_started = true;
    std::vector<std::uint16_t> idxs;
    idxs.reserve(m);
    bool all_in_pool = true;
    for (topo::NodeId n : nodes) {
      auto it = std::lower_bound(pool.begin(), pool.end(), n);
      if (it == pool.end() || *it != n) {
        all_in_pool = false;
        break;
      }
      idxs.push_back(
          static_cast<std::uint16_t>(std::distance(pool.begin(), it)));
    }
    best = v;
    if (all_in_pool) {
      has_set = true;
      best_set = std::move(idxs);
    } else {
      // Dominance pruning dropped a member: the swap argument guarantees an
      // in-pool set of value >= v exists, so v is a sound floor and the
      // greedy ids remain a valid degraded answer.
      floor_nodes = std::move(nodes);
    }
  }

  void accept(double value, std::vector<std::uint16_t>&& set) {
    const bool better =
        value > best ||
        (value == best && value > -kInf &&
         (!has_set || lex_less(set, best_set)));
    if (!better) return;
    best = value;
    best_set = std::move(set);
    has_set = true;
  }

  /// Could prefix (or prefix+r when r >= 0) still complete into a set
  /// lexicographically smaller than best_set? Conservative (true) when the
  /// compared positions are all equal and slots remain open.
  bool could_lex_improve(const std::vector<std::uint16_t>& prefix,
                         int r) const {
    std::size_t len = prefix.size() + (r >= 0 ? 1 : 0);
    if (len > m) len = m;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint16_t p = i < prefix.size()
                                  ? prefix[i]
                                  : static_cast<std::uint16_t>(r);
      if (p < best_set[i]) return true;
      if (p > best_set[i]) return false;
    }
    return len < m;
  }

  Cut classify(double ub, const std::vector<std::uint16_t>& prefix,
               int r) const {
    if (best == -kInf) return Cut::Keep;
    if (ub < best) return Cut::Bound;
    if (ub > best) return Cut::Keep;
    if (!has_set) return Cut::Keep;  // floor mode: ties must survive
    return could_lex_improve(prefix, r) ? Cut::Keep : Cut::Lex;
  }

  void note_cut(Cut c) {
    if (c == Cut::Bound) ++stats.pruned_bound;
    if (c == Cut::Lex) ++stats.pruned_lex;
  }

  void expand(const Open& node) {
    const auto& prefix = node.prefix;
    const std::size_t d = prefix.size();
    const std::size_t t = m - d;
    const std::size_t start = d == 0 ? 0 : prefix.back() + std::size_t{1};
    const double v = node.value;

    for (std::size_t r = start; r < P; ++r) {
      bool ok = true;
      double e = node_term[r];
      for (std::uint16_t p : prefix) {
        if (!pok(p, r)) {
          ok = false;
          break;
        }
        e = std::min(e, pt(p, r));
      }
      ext_ok[r] = ok ? 1 : 0;
      ext_exact[r] = e;
    }

    if (t == 1) {
      // Complete children: score exactly, no push.
      for (std::size_t r = start; r < P; ++r) {
        if (!ext_ok[r]) continue;
        const double value = std::min(v, ext_exact[r]);
        if (value < best) continue;
        std::vector<std::uint16_t> set(prefix);
        set.push_back(static_cast<std::uint16_t>(r));
        accept(value, std::move(set));
      }
      return;
    }

    // t >= 2: each extension r will pair with >= 1 future member, so its
    // contribution is bounded by its best feasible pair term anywhere (a
    // superset of its actual future partners — admissible).
    for (std::size_t r = start; r < P; ++r)
      ext_bound[r] =
          ext_ok[r] ? std::min(ext_exact[r], best_pair[r]) : -kInf;

    // kth[r] = (t-1)-th largest ext_bound among feasible q > r: bound on
    // the remaining t-1 slots of any completion through r. Backward pass
    // with a size-(t-1) min-heap; -inf when too few candidates remain.
    std::priority_queue<double, std::vector<double>, std::greater<double>> h;
    for (std::size_t r = P; r-- > start;) {
      kth[r] = h.size() == t - 1 ? h.top() : -kInf;
      if (ext_ok[r]) {
        if (h.size() < t - 1) {
          h.push(ext_bound[r]);
        } else if (ext_bound[r] > h.top()) {
          h.pop();
          h.push(ext_bound[r]);
        }
      }
    }

    for (std::size_t r = start; r < P; ++r) {
      if (!ext_ok[r]) continue;
      const double ub = std::min(std::min(v, ext_bound[r]), kth[r]);
      if (ub == -kInf) continue;  // no feasible completion through r
      const Cut c = classify(ub, prefix, static_cast<int>(r));
      if (c != Cut::Keep) {
        note_cut(c);
        continue;
      }
      Open child;
      child.ub = ub;
      child.value = std::min(v, ext_exact[r]);
      child.prefix = prefix;
      child.prefix.push_back(static_cast<std::uint16_t>(r));
      open.push_back(std::move(child));
      std::push_heap(open.begin(), open.end(), heap_less);
      ++stats.pushed;
    }
  }

  void compact() {
    // Free pass first: entries the incumbent already dominates can go
    // without weakening the certificate.
    auto mid = std::remove_if(open.begin(), open.end(), [&](const Open& o) {
      const Cut c = classify(o.ub, o.prefix, -1);
      if (c != Cut::Keep) {
        note_cut(c);
        return true;
      }
      return false;
    });
    open.erase(mid, open.end());
    const std::size_t cap = std::max<std::size_t>(opt.exact.max_open, 2);
    if (open.size() > cap) {
      // Keep the best half under the exploration order (strict total order
      // -> deterministic) and fold the evicted bounds into dropped_ub; the
      // run then certifies only a bound, not exactness.
      const std::size_t keep = std::max<std::size_t>(cap / 2, 1);
      std::nth_element(open.begin(),
                       open.begin() + static_cast<std::ptrdiff_t>(keep),
                       open.end(), explores_before);
      for (std::size_t i = keep; i < open.size(); ++i)
        dropped_ub = std::max(dropped_ub, open[i].ub);
      stats.open_dropped += open.size() - keep;
      open.resize(keep);
    }
    std::make_heap(open.begin(), open.end(), heap_less);
  }

  double frontier_bound() const {
    double b = std::max(best, dropped_ub);
    if (!open.empty()) b = std::max(b, open.front().ub);
    return b;
  }

  void run() {
    open.push_back(Open{kInf, kInf, {}});
    ext_exact.assign(P, 0.0);
    ext_bound.assign(P, 0.0);
    kth.assign(P, 0.0);
    ext_ok.assign(P, 0);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t pops = 0;
    while (!open.empty()) {
      if (opt.exact.node_budget != 0 &&
          stats.expanded >= opt.exact.node_budget) {
        stop = BnbStop::NodeBudget;
        budget_stop = true;
        break;
      }
      if (opt.exact.time_budget_s > 0.0 && (++pops & 1023) == 0) {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (dt.count() >= opt.exact.time_budget_s) {
          stop = BnbStop::TimeBudget;
          budget_stop = true;
          break;
        }
      }
      if (opt.exact.gap_tolerance > 0.0 && best > -kInf &&
          (has_set || !floor_nodes.empty())) {
        const double bound = frontier_bound();
        if (bound > best && bound < kInf && bound > 0.0 &&
            best >= (1.0 - opt.exact.gap_tolerance) * bound) {
          stop = BnbStop::GapReached;
          budget_stop = true;
          break;
        }
      }
      std::pop_heap(open.begin(), open.end(), heap_less);
      Open node = std::move(open.back());
      open.pop_back();
      // Re-check against the current incumbent: the bound was computed at
      // push time and may have been overtaken since.
      const Cut c = classify(node.ub, node.prefix, -1);
      if (c != Cut::Keep) {
        note_cut(c);
        continue;
      }
      ++stats.expanded;
      expand(node);
      if (open.size() > opt.exact.max_open) compact();
    }
  }

  BnbResult finalize() const {
    BnbResult r;
    r.stop = stop;
    r.stats = stats;
    const bool pool_limited = stop == BnbStop::PoolLimit;
    r.certified = !budget_stop && !pool_limited && open.empty() &&
                  dropped_ub == -kInf;
    if (has_set) {
      r.feasible = true;
      r.objective = best;
      r.nodes.reserve(m);
      for (std::uint16_t i : best_set) r.nodes.push_back(pool[i]);
    } else if (!floor_nodes.empty() && best > -kInf) {
      r.feasible = true;
      r.objective = best;
      r.nodes = floor_nodes;
    }
    if (pool_limited)
      r.upper_bound = kInf;
    else if (r.certified)
      r.upper_bound = r.feasible ? r.objective : -kInf;
    else
      r.upper_bound = frontier_bound();
    return r;
  }
};

/// Attachment groups above this size skip the quadratic dominator count.
constexpr std::size_t kMaxLeafGroup = 4096;

struct Leaf {
  topo::NodeId node;
  double bw;
  double frac;
  double cpu;
};

}  // namespace

std::vector<char> exact_dominated_candidate_mask(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    const std::vector<char>& eligible) {
  std::vector<char> cand = eligible;
  const auto m = static_cast<std::size_t>(opt.num_nodes);
  const auto& g = snap.graph();
  const std::size_t V = g.node_count();
  // Eligible degree-1 hosts bucketed by attachment node (count, prefix,
  // fill): anchor a's hosts are leaves[head[a] .. head[a+1]), in id order.
  std::vector<std::int32_t> head(V + 1, 0);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (!eligible[i]) continue;
    auto n = static_cast<topo::NodeId>(i);
    auto links = g.links_of(n);
    if (links.size() != 1) continue;
    ++head[static_cast<std::size_t>(g.other_end(links[0], n)) + 1];
  }
  auto prunable = [&](std::size_t size) {
    return size > m && size <= kMaxLeafGroup;
  };
  // The key lookups below are the expensive part: skip them when no group
  // can drop anything.
  bool any_prunable = false;
  for (std::size_t a = 1; a <= V && !any_prunable; ++a)
    any_prunable = prunable(static_cast<std::size_t>(head[a]));
  if (!any_prunable) return cand;
  for (std::size_t a = 0; a < V; ++a) head[a + 1] += head[a];
  std::vector<Leaf> leaves(static_cast<std::size_t>(head[V]));
  std::vector<std::int32_t> cursor(head.begin(), head.end() - 1);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (!eligible[i]) continue;
    auto n = static_cast<topo::NodeId>(i);
    auto links = g.links_of(n);
    if (links.size() != 1) continue;
    const topo::LinkId l = links[0];
    const auto anchor = static_cast<std::size_t>(g.other_end(l, n));
    leaves[static_cast<std::size_t>(cursor[anchor]++)] = {
        n, snap.bw(l), link_fraction(snap, l, opt), node_cpu(snap, n, opt)};
  }
  for (std::size_t a = 0; a < V; ++a) {
    const auto lo = static_cast<std::size_t>(head[a]);
    const auto hi = static_cast<std::size_t>(head[a + 1]);
    if (!prunable(hi - lo)) continue;
    // A host's potential dominators (strictly lower id) are exactly its
    // prefix of the group.
    for (std::size_t r = lo + m; r < hi; ++r) {
      const Leaf& b = leaves[r];
      std::size_t dominators = 0;
      for (std::size_t q = lo; q < r && dominators < m; ++q) {
        const Leaf& d = leaves[q];
        // Weak dominance on every key suffices: with a lower id the swap
        // is value-preserving *and* lexicographically improving, so ties
        // are prunable.
        if (d.cpu >= b.cpu && d.bw >= b.bw && d.frac >= b.frac) ++dominators;
      }
      if (dominators >= m) cand[static_cast<std::size_t>(b.node)] = 0;
    }
  }
  return cand;
}

const char* bnb_stop_name(BnbStop s) {
  switch (s) {
    case BnbStop::Proven: return "proven";
    case BnbStop::GapReached: return "gap_reached";
    case BnbStop::NodeBudget: return "node_budget";
    case BnbStop::TimeBudget: return "time_budget";
    case BnbStop::PoolLimit: return "pool_limit";
  }
  return "unknown";
}

double exact_set_value(const SelectionContext& ctx, const SelectionOptions& opt,
                       Criterion c, const std::vector<topo::NodeId>& nodes) {
  if (nodes.empty()) return -kInf;
  std::vector<topo::NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  const auto& snap = ctx.snapshot();
  double min_cpu = kInf;
  double min_abs = kInf;
  double min_frac = kInf;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    min_cpu = std::min(min_cpu, node_cpu(snap, sorted[i], opt));
    const auto& row = ctx.pair_row(sorted[i]);
    for (std::size_t j = i + 1; j < sorted.size(); ++j) {
      const auto dst = sorted[j];
      const auto v = static_cast<std::size_t>(dst);
      if (!row.reached[v]) {
        min_abs = std::min(min_abs, -1.0);
        min_frac = std::min(min_frac, -1.0);
        continue;
      }
      min_abs = std::min(min_abs, row.bottleneck[v]);
      min_frac =
          std::min(min_frac, SelectionContext::row_fraction(row, dst, opt));
    }
  }
  if (opt.min_bw_bps > 0.0 && min_abs < opt.min_bw_bps) return -kInf;
  switch (c) {
    case Criterion::MaxCompute: return min_cpu;
    case Criterion::MaxBandwidth: return min_abs;
    case Criterion::Balanced:
      return std::min(min_cpu / opt.cpu_priority, min_frac / opt.bw_priority);
  }
  return -kInf;
}

BnbResult BranchAndBoundSelector::select(Criterion c,
                                         const SelectionOptions& opt) const {
  auto& mm = bnb_metrics();
  mm.selections.inc();
  obs::ScopedTimer timer(mm.latency);
  const auto& ctx = *ctx_;
  validate_options(ctx.snapshot(), opt);

  Search s(ctx, opt, c);
  s.build_pool();
  BnbResult result;
  if (s.P < s.m) {
    // Fewer eligible nodes than slots: infeasible, same as the oracle.
    result.certified = true;
    result.upper_bound = -kInf;
    result.stats = s.stats;
  } else if (s.P > s.effective_max_pool()) {
    s.stop = BnbStop::PoolLimit;
    s.budget_stop = true;
    if (opt.exact.warm_start) s.warm_start();
    // Force floor mode: without the matrices there is no index-space
    // incumbent to hand back, only the greedy answer and an unbounded gap.
    if (s.has_set) {
      s.floor_nodes.clear();
      for (std::uint16_t i : s.best_set) s.floor_nodes.push_back(s.pool[i]);
      s.best_set.clear();
      s.has_set = false;
    }
    result = s.finalize();
  } else {
    s.build_terms();
    if (opt.exact.warm_start) s.warm_start();
    s.run();
    result = s.finalize();
  }
  mm.expanded.inc(result.stats.expanded);
  mm.pushed.inc(result.stats.pushed);
  mm.pruned_bound.inc(result.stats.pruned_bound);
  mm.pruned_lex.inc(result.stats.pruned_lex);
  mm.pool_dominated.inc(result.stats.pool_dominated);
  mm.open_dropped.inc(result.stats.open_dropped);
  if (result.certified) mm.certified.inc();
  if (result.stop != BnbStop::Proven) mm.budget_hits.inc();
  return result;
}

BnbResult branch_and_bound_select(const SelectionContext& ctx,
                                  const SelectionOptions& opt, Criterion c) {
  return BranchAndBoundSelector(ctx).select(c, opt);
}

BnbResult branch_and_bound_select(const remos::NetworkSnapshot& snap,
                                  const SelectionOptions& opt, Criterion c) {
  SelectionContext ctx(snap);
  return branch_and_bound_select(ctx, opt, c);
}

SelectionResult select_exact(const SelectionContext& ctx,
                             const SelectionOptions& opt, Criterion c) {
  detail::selections_counter().inc();
  const BnbResult b = BranchAndBoundSelector(ctx).select(c, opt);
  SelectionResult r;
  r.feasible = b.feasible;
  r.objective_bound = b.upper_bound;
  r.exact_certified = b.certified;
  r.iterations = static_cast<int>(std::min<std::uint64_t>(
      b.stats.expanded, std::numeric_limits<int>::max()));
  if (b.feasible) {
    r.nodes = b.nodes;
    r.objective = b.objective;
    const SetEvaluation ev = evaluate_set(ctx, r.nodes, opt);
    r.min_cpu = ev.min_cpu;
    r.min_bw_fraction = ev.min_pair_bw_fraction;
  }
  if (b.certified)
    r.note = b.feasible ? "exact: certified optimal" : "exact: proven infeasible";
  else
    r.note = std::string("exact: ") + bnb_stop_name(b.stop) +
             ", incumbent with sound bound";
  return r;
}

}  // namespace netsel::select
