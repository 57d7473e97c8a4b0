#include "select/objective.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "select/context.hpp"

namespace netsel::select {

namespace {

/// BFS parents from src under a link mask; parent_link[v] is the link used
/// to reach v, kInvalidLink for src and unreached nodes.
std::vector<topo::LinkId> bfs_parents(const topo::TopologyGraph& g,
                                      const std::vector<char>* link_active,
                                      topo::NodeId src) {
  std::vector<topo::LinkId> parent_link(g.node_count(), topo::kInvalidLink);
  std::vector<char> seen(g.node_count(), 0);
  std::queue<topo::NodeId> q;
  q.push(src);
  seen[static_cast<std::size_t>(src)] = 1;
  while (!q.empty()) {
    topo::NodeId u = q.front();
    q.pop();
    for (topo::LinkId l : g.links_of(u)) {
      if (link_active && !(*link_active)[static_cast<std::size_t>(l)]) continue;
      topo::NodeId v = g.other_end(l, u);
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        parent_link[static_cast<std::size_t>(v)] = l;
        q.push(v);
      }
    }
  }
  return parent_link;
}

std::vector<topo::LinkId> trace_path(const topo::TopologyGraph& g,
                                     const std::vector<topo::LinkId>& parent_link,
                                     topo::NodeId src, topo::NodeId dst) {
  std::vector<topo::LinkId> path;
  topo::NodeId u = dst;
  while (u != src) {
    topo::LinkId l = parent_link[static_cast<std::size_t>(u)];
    if (l == topo::kInvalidLink) return {};  // unreachable
    path.push_back(l);
    u = g.other_end(l, u);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

std::vector<topo::LinkId> bfs_path(const topo::TopologyGraph& g,
                                   topo::NodeId src, topo::NodeId dst) {
  if (src == dst) return {};
  auto parents = bfs_parents(g, nullptr, src);
  return trace_path(g, parents, src, dst);
}

std::vector<topo::LinkId> steiner_links(const topo::TopologyGraph& g,
                                        const std::vector<char>& link_active,
                                        const std::vector<topo::NodeId>& nodes) {
  std::vector<char> in_union(g.link_count(), 0);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    auto parents = bfs_parents(g, &link_active, nodes[i]);
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      for (topo::LinkId l : trace_path(g, parents, nodes[i], nodes[j]))
        in_union[static_cast<std::size_t>(l)] = 1;
    }
  }
  std::vector<topo::LinkId> out;
  for (std::size_t l = 0; l < in_union.size(); ++l)
    if (in_union[l]) out.push_back(static_cast<topo::LinkId>(l));
  return out;
}

SetEvaluation evaluate_set(const SelectionContext& ctx,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt) {
  const auto& snap = ctx.snapshot();
  const auto& g = ctx.graph();
  SetEvaluation ev;
  ev.connected = true;
  ev.min_cpu = std::numeric_limits<double>::infinity();
  ev.min_pair_bw = std::numeric_limits<double>::infinity();
  ev.min_pair_bw_fraction = std::numeric_limits<double>::infinity();
  if (nodes.empty()) throw std::invalid_argument("evaluate_set: empty set");
  for (topo::NodeId n : nodes) {
    if (!g.is_compute(n))
      throw std::invalid_argument("evaluate_set: non-compute node in set");
    ev.min_cpu = std::min(ev.min_cpu, node_cpu(snap, n, opt));
  }
  if (nodes.size() == 1) {
    // No pairs: report the node's NIC availability, per figure (see
    // SetEvaluation::min_pair_bw).
    double nic_bw = 0.0;
    double nic_frac = 0.0;
    for (topo::LinkId l : g.links_of(nodes[0])) {
      nic_bw = std::max(nic_bw, snap.bw(l));
      nic_frac = std::max(nic_frac, link_fraction(snap, l, opt));
    }
    ev.min_pair_bw = nic_bw;
    ev.min_pair_bw_fraction = nic_frac;
  } else {
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      const topo::BottleneckRow* row = nullptr;
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        if (nodes[i] == nodes[j]) continue;
        if (!row) row = &ctx.read_row(nodes[i]);
        const auto v = static_cast<std::size_t>(nodes[j]);
        if (!row->reached[v]) {
          ev.connected = false;
          ev.min_pair_bw = 0.0;
          ev.min_pair_bw_fraction = 0.0;
          continue;
        }
        ev.min_pair_bw = std::min(ev.min_pair_bw, row->bottleneck[v]);
        ev.min_pair_bw_fraction = std::min(
            ev.min_pair_bw_fraction,
            SelectionContext::row_fraction(*row, nodes[j], opt));
        ev.max_pair_latency = std::max(ev.max_pair_latency, row->latency[v]);
      }
    }
  }
  ev.balanced = std::min(ev.min_cpu / opt.cpu_priority,
                         ev.min_pair_bw_fraction / opt.bw_priority);
  return ev;
}

SetEvaluation evaluate_set(const remos::NetworkSnapshot& snap,
                           const std::vector<topo::NodeId>& nodes,
                           const SelectionOptions& opt) {
  SelectionContext ctx(snap);
  return evaluate_set(ctx, nodes, opt);
}

}  // namespace netsel::select
