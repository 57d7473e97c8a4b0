#pragma once
// Internal helpers shared by the selection algorithm implementations.

#include <algorithm>
#include <limits>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/options.hpp"
#include "topo/connectivity.hpp"
#include "topo/graph.hpp"

namespace netsel::select::detail {

/// Eligible members of component `c`, in id order.
inline std::vector<topo::NodeId> eligible_members(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    const topo::Components& comps, int c) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < comps.comp_of.size(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (comps.comp_of[i] == c && node_eligible(snap, n, opt)) out.push_back(n);
  }
  return out;
}

/// Eligible-node count per component.
inline std::vector<int> eligible_counts(const remos::NetworkSnapshot& snap,
                                        const SelectionOptions& opt,
                                        const topo::Components& comps) {
  std::vector<int> counts(static_cast<std::size_t>(comps.count), 0);
  for (std::size_t i = 0; i < comps.comp_of.size(); ++i) {
    auto n = static_cast<topo::NodeId>(i);
    if (node_eligible(snap, n, opt))
      counts[static_cast<std::size_t>(comps.comp_of[i])]++;
  }
  return counts;
}

/// Members of component `c` with `mask` set (the eligibility mask), in id
/// order.
inline std::vector<topo::NodeId> members_in_component(
    const std::vector<char>& mask, const topo::Components& comps, int c) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < comps.comp_of.size(); ++i)
    if (comps.comp_of[i] == c && mask[i])
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

/// Per-component count of nodes with `mask` set.
inline std::vector<int> counts_in_components(const std::vector<char>& mask,
                                             const topo::Components& comps) {
  std::vector<int> counts(static_cast<std::size_t>(comps.count), 0);
  for (std::size_t i = 0; i < comps.comp_of.size(); ++i)
    if (mask[i]) counts[static_cast<std::size_t>(comps.comp_of[i])]++;
  return counts;
}

/// The m members with the highest cpu (ties toward lower node id, which is
/// deterministic and matches "any m nodes" in the paper). `members` must
/// contain at least m nodes.
inline std::vector<topo::NodeId> top_m_by_cpu(
    const remos::NetworkSnapshot& snap, const SelectionOptions& opt,
    std::vector<topo::NodeId> members, int m) {
  std::stable_sort(members.begin(), members.end(),
                   [&](topo::NodeId a, topo::NodeId b) {
                     return node_cpu(snap, a, opt) > node_cpu(snap, b, opt);
                   });
  members.resize(static_cast<std::size_t>(m));
  std::sort(members.begin(), members.end());
  return members;
}

/// Minimum cpu among a node set (reference units).
inline double min_cpu_of(const remos::NetworkSnapshot& snap,
                         const SelectionOptions& opt,
                         const std::vector<topo::NodeId>& nodes) {
  double v = std::numeric_limits<double>::infinity();
  for (topo::NodeId n : nodes) v = std::min(v, node_cpu(snap, n, opt));
  return v;
}

/// Minimum link fraction among active links inside component `c`
/// (+infinity when the component has no active links, e.g. a lone node).
inline double min_fraction_in_component(const remos::NetworkSnapshot& snap,
                                        const SelectionOptions& opt,
                                        const topo::Components& comps, int c,
                                        const std::vector<char>& link_active) {
  const auto& g = snap.graph();
  double v = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    if (!link_active[l]) continue;
    const topo::Link& lk = g.link(static_cast<topo::LinkId>(l));
    if (comps.comp_of[static_cast<std::size_t>(lk.a)] != c) continue;
    v = std::min(v, link_fraction(snap, static_cast<topo::LinkId>(l), opt));
  }
  return v;
}

/// Active link with the minimum *available bandwidth* (absolute bits/s,
/// Fig. 2); ties toward the lowest link id. kInvalidLink when none active.
inline topo::LinkId min_bw_link(const remos::NetworkSnapshot& snap,
                                const std::vector<char>& link_active) {
  topo::LinkId best = topo::kInvalidLink;
  double best_bw = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < link_active.size(); ++l) {
    if (!link_active[l]) continue;
    double b = snap.bw(static_cast<topo::LinkId>(l));
    if (b < best_bw) {
      best_bw = b;
      best = static_cast<topo::LinkId>(l);
    }
  }
  return best;
}

/// Active link with the minimum *fractional* bandwidth (Fig. 3).
inline topo::LinkId min_fraction_link(const remos::NetworkSnapshot& snap,
                                      const SelectionOptions& opt,
                                      const std::vector<char>& link_active) {
  topo::LinkId best = topo::kInvalidLink;
  double best_f = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < link_active.size(); ++l) {
    if (!link_active[l]) continue;
    double f = link_fraction(snap, static_cast<topo::LinkId>(l), opt);
    if (f < best_f) {
      best_f = f;
      best = static_cast<topo::LinkId>(l);
    }
  }
  return best;
}

}  // namespace netsel::select::detail
