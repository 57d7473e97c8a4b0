#include "topo/connectivity.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace netsel::topo {

std::vector<NodeId> Components::members(int c) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < comp_of.size(); ++i) {
    if (comp_of[i] == c) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

Components connected_components(const TopologyGraph& g,
                                const std::vector<char>& link_active) {
  if (link_active.size() != g.link_count())
    throw std::invalid_argument("connected_components: mask size mismatch");
  Components result;
  result.comp_of.assign(g.node_count(), -1);
  std::vector<NodeId> stack;
  for (std::size_t start = 0; start < g.node_count(); ++start) {
    if (result.comp_of[start] != -1) continue;
    int c = result.count++;
    result.compute_count.push_back(0);
    result.node_count.push_back(0);
    stack.push_back(static_cast<NodeId>(start));
    result.comp_of[start] = c;
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      result.node_count[static_cast<std::size_t>(c)]++;
      if (g.is_compute(u)) result.compute_count[static_cast<std::size_t>(c)]++;
      for (LinkId l : g.links_of(u)) {
        if (!link_active[static_cast<std::size_t>(l)]) continue;
        NodeId v = g.other_end(l, u);
        if (result.comp_of[static_cast<std::size_t>(v)] == -1) {
          result.comp_of[static_cast<std::size_t>(v)] = c;
          stack.push_back(v);
        }
      }
    }
  }
  return result;
}

Components connected_components(const TopologyGraph& g) {
  std::vector<char> all(g.link_count(), 1);
  return connected_components(g, all);
}

CsrAdjacency CsrAdjacency::build(const TopologyGraph& g) {
  CsrAdjacency adj;
  const std::size_t V = g.node_count();
  const std::size_t E = g.link_count();
  adj.row_start.assign(V + 1, 0);
  adj.neighbor.reserve(2 * E);
  adj.via.reserve(2 * E);
  for (std::size_t n = 0; n < V; ++n) {
    auto id = static_cast<NodeId>(n);
    for (LinkId l : g.links_of(id)) {
      adj.neighbor.push_back(g.other_end(l, id));
      adj.via.push_back(l);
    }
    adj.row_start[n + 1] = static_cast<std::int32_t>(adj.neighbor.size());
  }
  adj.link_latency.resize(E);
  for (std::size_t l = 0; l < E; ++l)
    adj.link_latency[l] = g.link(static_cast<LinkId>(l)).latency;
  adj.is_compute.resize(V);
  for (std::size_t n = 0; n < V; ++n)
    adj.is_compute[n] = g.is_compute(static_cast<NodeId>(n)) ? 1 : 0;
  return adj;
}

void CsrAdjacency::patch_add_node(const TopologyGraph& g, NodeId n) {
  if (static_cast<std::size_t>(n) != node_count())
    throw std::invalid_argument("patch_add_node: ids must be patched in order");
  row_start.push_back(row_start.back());
  is_compute.push_back(g.is_compute(n) ? 1 : 0);
}

void CsrAdjacency::patch_add_link(const TopologyGraph& g, LinkId l) {
  if (static_cast<std::size_t>(l) != link_count())
    throw std::invalid_argument("patch_add_link: ids must be patched in order");
  const Link& lk = g.link(l);
  // add_link appends to incident_[a] then incident_[b]; insert each
  // half-edge at the end of its row so the links_of() order is preserved.
  auto insert_half = [&](NodeId at, NodeId other) {
    const auto pos = static_cast<std::size_t>(
        row_start[static_cast<std::size_t>(at) + 1]);
    neighbor.insert(neighbor.begin() + static_cast<std::ptrdiff_t>(pos), other);
    via.insert(via.begin() + static_cast<std::ptrdiff_t>(pos), l);
    for (std::size_t k = static_cast<std::size_t>(at) + 1;
         k < row_start.size(); ++k)
      ++row_start[k];
  };
  insert_half(lk.a, lk.b);
  insert_half(lk.b, lk.a);
  link_latency.push_back(lk.latency);
}

void CsrAdjacency::patch_remove_link(const TopologyGraph& g, LinkId l) {
  if (l < 0 || static_cast<std::size_t>(l) >= link_count())
    throw std::invalid_argument("patch_remove_link: link out of range");
  const Link& lk = g.link(l);  // record outlives removal
  auto erase_half = [&](NodeId at) {
    const auto lo = static_cast<std::size_t>(
        row_start[static_cast<std::size_t>(at)]);
    const auto hi = static_cast<std::size_t>(
        row_start[static_cast<std::size_t>(at) + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      if (via[e] != l) continue;
      neighbor.erase(neighbor.begin() + static_cast<std::ptrdiff_t>(e));
      via.erase(via.begin() + static_cast<std::ptrdiff_t>(e));
      for (std::size_t k = static_cast<std::size_t>(at) + 1;
           k < row_start.size(); ++k)
        --row_start[k];
      return;
    }
    throw std::invalid_argument("patch_remove_link: half-edge not found");
  };
  erase_half(lk.a);
  erase_half(lk.b);
  // The latency slot stays: link ids are never recycled, and keeping the
  // slot keeps every id-indexed weight array aligned with link_count().
}

void CsrAdjacency::patch_remove_node(NodeId n) {
  if (n < 0 || static_cast<std::size_t>(n) >= node_count())
    throw std::invalid_argument("patch_remove_node: node out of range");
  const auto lo = static_cast<std::size_t>(row_start[static_cast<std::size_t>(n)]);
  const auto hi =
      static_cast<std::size_t>(row_start[static_cast<std::size_t>(n) + 1]);
  if (lo != hi)
    throw std::invalid_argument("patch_remove_node: node still has links");
  is_compute[static_cast<std::size_t>(n)] = 0;
}

Components connected_components(const CsrAdjacency& adj,
                                const std::vector<char>& link_active) {
  if (link_active.size() != adj.link_count())
    throw std::invalid_argument("connected_components: mask size mismatch");
  Components result;
  result.comp_of.assign(adj.node_count(), -1);
  std::vector<NodeId> stack;
  for (std::size_t start = 0; start < adj.node_count(); ++start) {
    if (result.comp_of[start] != -1) continue;
    int c = result.count++;
    result.compute_count.push_back(0);
    result.node_count.push_back(0);
    stack.push_back(static_cast<NodeId>(start));
    result.comp_of[start] = c;
    while (!stack.empty()) {
      const auto iu = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      result.node_count[static_cast<std::size_t>(c)]++;
      if (adj.is_compute[iu]) result.compute_count[static_cast<std::size_t>(c)]++;
      const auto lo = static_cast<std::size_t>(adj.row_start[iu]);
      const auto hi = static_cast<std::size_t>(adj.row_start[iu + 1]);
      for (std::size_t e = lo; e < hi; ++e) {
        if (!link_active[static_cast<std::size_t>(adj.via[e])]) continue;
        const auto iv = static_cast<std::size_t>(adj.neighbor[e]);
        if (result.comp_of[iv] == -1) {
          result.comp_of[iv] = c;
          stack.push_back(adj.neighbor[e]);
        }
      }
    }
  }
  return result;
}

Components connected_components(const CsrAdjacency& adj) {
  std::vector<char> all(adj.link_count(), 1);
  return connected_components(adj, all);
}

EligibleUnionFind::EligibleUnionFind(const std::vector<char>& eligible)
    : parent_(eligible.size()),
      size_(eligible.size(), 1),
      eligible_(eligible.size()),
      min_member_(eligible.size()) {
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    parent_[i] = static_cast<NodeId>(i);
    min_member_[i] = static_cast<NodeId>(i);
    eligible_[i] = eligible[i] ? 1 : 0;
    if (eligible_[i] > max_eligible_) max_eligible_ = eligible_[i];
  }
}

NodeId EligibleUnionFind::find(NodeId n) {
  // Path halving.
  while (parent_[idx(n)] != n) {
    parent_[idx(n)] = parent_[idx(parent_[idx(n)])];
    n = parent_[idx(n)];
  }
  return n;
}

NodeId EligibleUnionFind::unite(NodeId a, NodeId b) {
  NodeId ra = find(a);
  NodeId rb = find(b);
  if (ra == rb) return ra;
  if (size_[idx(ra)] < size_[idx(rb)]) std::swap(ra, rb);
  parent_[idx(rb)] = ra;
  size_[idx(ra)] += size_[idx(rb)];
  eligible_[idx(ra)] += eligible_[idx(rb)];
  if (min_member_[idx(rb)] < min_member_[idx(ra)])
    min_member_[idx(ra)] = min_member_[idx(rb)];
  if (eligible_[idx(ra)] > max_eligible_) max_eligible_ = eligible_[idx(ra)];
  return ra;
}

BottleneckRow bottleneck_row(const TopologyGraph& g, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2) {
  if (weight.size() != g.link_count())
    throw std::invalid_argument("bottleneck_row: weight size mismatch");
  if (weight2.size() != g.link_count())
    throw std::invalid_argument("bottleneck_row: weight2 size mismatch");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.node_count();
  BottleneckRow row;
  row.bottleneck.assign(n, 0.0);
  row.bottleneck2.assign(n, 0.0);
  row.latency.assign(n, 0.0);
  row.reached.assign(n, 0);
  row.bottleneck[static_cast<std::size_t>(src)] = kInf;
  row.bottleneck2[static_cast<std::size_t>(src)] = kInf;
  row.reached[static_cast<std::size_t>(src)] = 1;
  row.tree_link.assign(n, kInvalidLink);
  row.order.reserve(n);
  row.order.push_back(src);
  // The FIFO order and links_of() iteration order below must match
  // select::bfs_path exactly: they define the same BFS tree, hence the same
  // deterministic paths on cyclic graphs.
  std::queue<NodeId> q;
  q.push(src);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    const auto iu = static_cast<std::size_t>(u);
    for (LinkId l : g.links_of(u)) {
      NodeId v = g.other_end(l, u);
      const auto iv = static_cast<std::size_t>(v);
      if (row.reached[iv]) continue;
      row.reached[iv] = 1;
      const auto il = static_cast<std::size_t>(l);
      row.tree_link[iv] = l;
      row.order.push_back(v);
      row.bottleneck[iv] = std::min(row.bottleneck[iu], weight[il]);
      row.bottleneck2[iv] = std::min(row.bottleneck2[iu], weight2[il]);
      row.latency[iv] = row.latency[iu] + g.link(l).latency;
      q.push(v);
    }
  }
  return row;
}

BottleneckRow bottleneck_row(const CsrAdjacency& adj, NodeId src,
                             std::span<const double> weight,
                             std::span<const double> weight2) {
  BottleneckRow row;
  bottleneck_row(adj, src, weight, weight2, row);
  return row;
}

void bottleneck_row(const CsrAdjacency& adj, NodeId src,
                    std::span<const double> weight,
                    std::span<const double> weight2, BottleneckRow& row) {
  if (weight.size() != adj.link_count())
    throw std::invalid_argument("bottleneck_row: weight size mismatch");
  if (weight2.size() != adj.link_count())
    throw std::invalid_argument("bottleneck_row: weight2 size mismatch");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = adj.node_count();
  row.bottleneck.assign(n, 0.0);
  row.bottleneck2.assign(n, 0.0);
  row.latency.assign(n, 0.0);
  row.reached.assign(n, 0);
  row.bottleneck[static_cast<std::size_t>(src)] = kInf;
  row.bottleneck2[static_cast<std::size_t>(src)] = kInf;
  row.reached[static_cast<std::size_t>(src)] = 1;
  row.tree_link.assign(n, kInvalidLink);
  // Flat FIFO frontier: a node enters at most once, so a vector with a read
  // cursor is the same queue discipline as the graph-walking overload. The
  // frontier *is* the discovery order, recorded as row.order.
  std::vector<NodeId>& fifo = row.order;
  fifo.clear();
  fifo.reserve(n);
  fifo.push_back(src);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const auto iu = static_cast<std::size_t>(fifo[head]);
    const auto lo = static_cast<std::size_t>(adj.row_start[iu]);
    const auto hi = static_cast<std::size_t>(adj.row_start[iu + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const auto iv = static_cast<std::size_t>(adj.neighbor[e]);
      if (row.reached[iv]) continue;
      row.reached[iv] = 1;
      const auto il = static_cast<std::size_t>(adj.via[e]);
      row.tree_link[iv] = adj.via[e];
      row.bottleneck[iv] = std::min(row.bottleneck[iu], weight[il]);
      row.bottleneck2[iv] = std::min(row.bottleneck2[iu], weight2[il]);
      row.latency[iv] = row.latency[iu] + adj.link_latency[il];
      fifo.push_back(adj.neighbor[e]);
    }
  }
}

int largest_compute_component(const Components& c) {
  int best = -1;
  int best_count = 0;
  for (int i = 0; i < c.count; ++i) {
    if (c.compute_count[static_cast<std::size_t>(i)] > best_count) {
      best_count = c.compute_count[static_cast<std::size_t>(i)];
      best = i;
    }
  }
  return best;
}

}  // namespace netsel::topo
