#include "select/context.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace netsel::select {

namespace {
// Cache visibility for the shared-context layer: every row read is a hit
// (slot already built) or a miss (BFS bottleneck row built now; the misses
// read_row() builds without caching also count as rows.transient);
// epoch invalidations count *full* cache drops (journal trimmed past the
// context's epoch); the delta.* / rows.* families count the fine-grained
// path. Purely observational — one branch each while the registry is
// disabled.
obs::Counter& row_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.row_hits");
  return c;
}
obs::Counter& row_misses() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.row_misses");
  return c;
}
obs::Counter& invalidations() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.invalidations");
  return c;
}
obs::Counter& order_builds() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.order_builds");
  return c;
}
obs::Counter& deltas_applied() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.delta.applied");
  return c;
}
obs::Counter& rows_invalidated_partial() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.invalidated.partial");
  return c;
}
obs::Counter& rows_invalidated_full() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.invalidated.full");
  return c;
}
obs::Counter& rows_repaired() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.repaired");
  return c;
}
obs::Counter& rows_transient() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.transient");
  return c;
}
obs::Counter& rows_flushes() {
  static obs::Counter& c =
      obs::Registry::global().counter("select.ctx.rows.flushes");
  return c;
}
// Catch-up lag: changed-link log entries some built row has not applied
// yet, sampled after each catch-up.
obs::Gauge& log_pending_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("select.ctx.log.pending");
  return g;
}
obs::Histogram& csr_patch_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "select.ctx.csr_patch_s", obs::exp_buckets(1e-7, 4.0, 12));
  return h;
}
}  // namespace

SelectionContext::SelectionContext(const remos::NetworkSnapshot& snap)
    : snap_(&snap), epoch_(snap.epoch()) {
  // Touch every context metric so all are registered (and exported,
  // possibly at 0) as soon as any context exists — a run with no cache hits
  // still reports select.ctx.row_hits: 0 rather than omitting it.
  row_hits();
  row_misses();
  invalidations();
  order_builds();
  deltas_applied();
  rows_invalidated_partial();
  rows_invalidated_full();
  rows_repaired();
  rows_transient();
  rows_flushes();
  log_pending_gauge();
  csr_patch_hist();
}

// ---------------------------------------------------------------------------
// Delta consumption
// ---------------------------------------------------------------------------

void SelectionContext::revalidate() const {
  if (epoch_ == snap_->epoch()) return;
  pending_.clear();
  if (snap_->deltas_since(epoch_, pending_)) {
    deltas_applied().inc(pending_.size());
    for (const remos::Delta& d : pending_) apply_delta(d);
  } else {
    // The journal no longer covers our epoch: fall back to the historical
    // drop-everything behaviour.
    invalidate_all();
  }
  epoch_ = snap_->epoch();
  if (obs::enabled()) {
    std::size_t oldest = log_.size();
    for (const RowSlot& s : rows_)
      if (const RowEntry* e = s.get())
        oldest = std::min(oldest, e->seen.load(std::memory_order_relaxed));
    log_pending_gauge().set(static_cast<double>(log_.size() - oldest));
  }
}

void SelectionContext::invalidate_all() const {
  invalidations().inc();
  if (std::size_t built = built_row_count()) rows_invalidated_full().inc(built);
  bw_.clear();
  bwfactor_.clear();
  by_bw_.clear();
  by_bwfactor_.clear();
  bw_valid_ = bwfactor_valid_ = by_bw_valid_ = by_bwfactor_valid_ = false;
  base_comps_.reset();
  rows_.clear();
  flush_log();  // no rows left to catch up: just clears the log
  // The unseen deltas may have been structural, so the graph-shaped caches
  // go too.
  csr_.reset();
  acyclic_ = -1;
}

void SelectionContext::apply_delta(const remos::Delta& d) const {
  // Structural deltas reshape trees and the CSR the repairs walk: every
  // row first catches up under the old structure.
  if (remos::delta_is_structural(d.kind)) flush_log();
  switch (d.kind) {
    case remos::DeltaKind::NodeLoad:
    case remos::DeltaKind::NodeMemory:
      // Eligibility and cpu rankings are per-call state; nothing cached
      // here depends on node sensors.
      return;
    case remos::DeltaKind::LinkBandwidth: return apply_link_bandwidth(d.link);
    case remos::DeltaKind::NodeAdded: return apply_node_added(d.node);
    case remos::DeltaKind::NodeRemoved: return apply_node_removed(d.node);
    case remos::DeltaKind::LinkAdded: return apply_link_added(d.link);
    case remos::DeltaKind::LinkRemoved: return apply_link_removed(d.link);
  }
}

namespace {

// (key, id) is a strict total order over links (ids are distinct), and it
// is exactly the order stable_sort-ascending-by-key produces, so a binary
// erase + sorted reinsert leaves the order identical to a rebuilt sort.
bool order_erase(std::vector<topo::LinkId>& order,
                 const std::vector<double>& key, topo::LinkId l) {
  auto less = [&](topo::LinkId a, topo::LinkId b) {
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  };
  auto it = std::lower_bound(order.begin(), order.end(), l, less);
  if (it == order.end() || *it != l)
    it = std::find(order.begin(), order.end(), l);  // defensive; never hit
  if (it == order.end()) return false;
  order.erase(it);
  return true;
}

void order_insert(std::vector<topo::LinkId>& order,
                  const std::vector<double>& key, topo::LinkId l) {
  auto less = [&](topo::LinkId a, topo::LinkId b) {
    const double ka = key[static_cast<std::size_t>(a)];
    const double kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  };
  order.insert(std::lower_bound(order.begin(), order.end(), l, less), l);
}

}  // namespace

void SelectionContext::apply_link_bandwidth(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  bool changed = false;
  // Patch the cached weight arrays to the snapshot's *current* value (not
  // the delta's recorded one): repeated deltas for the same link converge,
  // and a later repair always sees final weights. Erase with the old key
  // before writing the new one — the deletion orders are sorted by the
  // cached key.
  if (bw_valid_ && il < bw_.size()) {
    const double nb = snap_->bw(l);
    if (bw_[il] != nb) {
      if (by_bw_valid_) order_erase(by_bw_, bw_, l);
      bw_[il] = nb;
      if (by_bw_valid_) order_insert(by_bw_, bw_, l);
      changed = true;
    }
  }
  if (bwfactor_valid_ && il < bwfactor_.size()) {
    const double nf = snap_->bwfactor(l);
    if (bwfactor_[il] != nf) {
      if (by_bwfactor_valid_) order_erase(by_bwfactor_, bwfactor_, l);
      bwfactor_[il] = nf;
      if (by_bwfactor_valid_) order_insert(by_bwfactor_, bwfactor_, l);
      changed = true;
    }
  }
  if (!changed) return;
  // Row repair is deferred to the row's next read (catch_up_row): log the
  // link, superseding any earlier entry for it.
  const std::size_t links = graph().link_count();
  if (last_change_.size() < links) last_change_.resize(links);
  last_change_[il] = log_.size();
  log_.push_back(l);
  if (log_.size() > links) flush_log();
}

void SelectionContext::catch_up_row(RowEntry& e) const {
  const std::size_t head = log_.size();
  const std::size_t from = e.seen.load(std::memory_order_relaxed);
  // Only a link's latest entry counts: repairs read the final weights, so
  // one repair covers every change of the link.
  auto pending = [&](std::size_t i) {
    const topo::LinkId l = log_[i];
    return last_change_[static_cast<std::size_t>(l)] == i &&
           tree_edge(e.row, l);
  };
  // A changed tree link at the source roots a subtree that can span the
  // whole row (a fat-tree host's access link does): one sequential replay
  // of the discovery order then beats the subtree walks, and covers every
  // other pending link too.
  const topo::NodeId src =
      e.row.order.empty() ? topo::kInvalidNode : e.row.order.front();
  std::size_t repairs = 0;
  bool at_source = false;
  for (std::size_t i = from; i < head; ++i) {
    if (!pending(i)) continue;
    ++repairs;
    const topo::Link& ln = graph().link(log_[i]);
    at_source = at_source || ln.a == src || ln.b == src;
  }
  if (at_source) {
    replay_row(e);
  } else if (repairs > 0) {
    for (std::size_t i = from; i < head; ++i)
      if (pending(i)) repair_row_values(e, log_[i]);
  }
  rows_repaired().inc(repairs);
  e.seen.store(head, std::memory_order_release);
}

bool SelectionContext::tree_edge(const topo::BottleneckRow& row,
                                 topo::LinkId l) const {
  const topo::Link& ln = graph().link(l);
  return row.tree_link[static_cast<std::size_t>(ln.a)] == l ||
         row.tree_link[static_cast<std::size_t>(ln.b)] == l;
}

void SelectionContext::flush_log() const {
  if (log_.empty()) return;
  for (RowSlot& s : rows_) {
    if (RowEntry* e = s.get()) {
      catch_up_row(*e);
      e->seen.store(0, std::memory_order_relaxed);
    }
  }
  log_.clear();
  rows_flushes().inc();
  log_pending_gauge().set(0.0);
}

void SelectionContext::repair_row_values(RowEntry& e, topo::LinkId l) const {
  // The BFS tree is weight-independent, so only the values changed, and
  // only inside the subtree hanging below l: the unique node the tree
  // discovered via l, and its tree descendants. Nodes discovered before
  // that child cannot have l on their tree path (ancestors precede
  // descendants in BFS order), and siblings' paths avoid l entirely. Each
  // recomputation is the exact float operation the build performs, on a
  // parent value that is already final (parents are dequeued before their
  // children below), so the result is bit-identical to a from-scratch
  // rebuild. latency and reached are weight-independent.
  topo::BottleneckRow& row = e.row;
  const auto& g = graph();
  const topo::Link& ln = g.link(l);
  const topo::NodeId child =
      row.tree_link[static_cast<std::size_t>(ln.a)] == l ? ln.a : ln.b;
  if (!csr_) {
    // Defensive: no adjacency to walk (never expected while rows exist).
    replay_row(e);
    return;
  }
  const topo::CsrAdjacency& adj = *csr_;
  // Per thread: rows are repaired concurrently under their stripe locks.
  thread_local std::vector<topo::NodeId> queue;
  queue.clear();
  queue.push_back(child);
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const topo::NodeId v = queue[qi];
    const auto iv = static_cast<std::size_t>(v);
    const topo::LinkId pl = row.tree_link[iv];
    const auto ipl = static_cast<std::size_t>(pl);
    const auto ip = static_cast<std::size_t>(g.other_end(pl, v));
    row.bottleneck[iv] = std::min(row.bottleneck[ip], bw_[ipl]);
    row.bottleneck2[iv] = std::min(row.bottleneck2[ip], bwfactor_[ipl]);
    for (auto k = adj.row_start[iv]; k < adj.row_start[iv + 1]; ++k) {
      const topo::NodeId w = adj.neighbor[k];
      // w is v's tree child iff the edge that discovered w is this one.
      if (row.tree_link[static_cast<std::size_t>(w)] == adj.via[k])
        queue.push_back(w);
    }
  }
}

void SelectionContext::replay_row(RowEntry& e) const {
  // Every value recomputed in discovery order (parents first) with the
  // build's float operation: bit-identical to a rebuild.
  topo::BottleneckRow& row = e.row;
  const auto& g = graph();
  for (std::size_t i = 1; i < row.order.size(); ++i) {
    const topo::NodeId v = row.order[i];
    const auto iv = static_cast<std::size_t>(v);
    const auto il = static_cast<std::size_t>(row.tree_link[iv]);
    const auto ip = static_cast<std::size_t>(g.other_end(row.tree_link[iv], v));
    row.bottleneck[iv] = std::min(row.bottleneck[ip], bw_[il]);
    row.bottleneck2[iv] = std::min(row.bottleneck2[ip], bwfactor_[il]);
  }
}

void SelectionContext::apply_node_added(topo::NodeId n) const {
  if (csr_) {
    obs::ScopedTimer t(csr_patch_hist());
    csr_->patch_add_node(graph(), n);
  }
  if (base_comps_) {
    // The new node has the highest id and no links, so a rebuild would
    // discover it last as a singleton component: append exactly that.
    base_comps_->comp_of.push_back(base_comps_->count);
    base_comps_->compute_count.push_back(graph().is_compute(n) ? 1 : 0);
    base_comps_->node_count.push_back(1);
    ++base_comps_->count;
  }
  if (!rows_.empty()) {
    // Extend every built row with the entry a rebuild would produce for an
    // unreached node; existing values are untouched.
    for (RowSlot& s : rows_) {
      RowEntry* e = s.get();
      if (!e) continue;
      e->row.bottleneck.push_back(0.0);
      e->row.bottleneck2.push_back(0.0);
      e->row.latency.push_back(0.0);
      e->row.reached.push_back(0);
      e->row.tree_link.push_back(topo::kInvalidLink);
    }
    rows_.emplace_back();
  }
  // acyclic_ is kept: an isolated node never creates a cycle.
}

void SelectionContext::apply_node_removed(topo::NodeId n) const {
  // Removal requires degree 0, so by the time this delta arrives every
  // incident link has already been removed (and the rows those removals
  // touched dropped): no built row reaches n except n's own singleton row,
  // which a rebuild reproduces unchanged. Only the compute flag flips.
  if (csr_) {
    obs::ScopedTimer t(csr_patch_hist());
    csr_->patch_remove_node(n);
  }
  if (base_comps_) {
    const int c = base_comps_->comp_of[static_cast<std::size_t>(n)];
    base_comps_->compute_count[c] = 0;  // degree-0 singleton, now tombstoned
  }
  // acyclic_ and the weight caches are link-shaped: untouched.
}

void SelectionContext::apply_link_added(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  if (csr_) {
    obs::ScopedTimer t(csr_patch_hist());
    csr_->patch_add_link(graph(), l);
  }
  acyclic_ = -1;
  base_comps_.reset();
  if (bw_valid_) {
    if (bw_.size() == il) {
      bw_.push_back(snap_->bw(l));
      if (by_bw_valid_) order_insert(by_bw_, bw_, l);
    } else {  // defensive; applied-in-order deltas keep sizes aligned
      bw_valid_ = by_bw_valid_ = false;
      bw_.clear();
      by_bw_.clear();
    }
  }
  if (bwfactor_valid_) {
    if (bwfactor_.size() == il) {
      bwfactor_.push_back(snap_->bwfactor(l));
      if (by_bwfactor_valid_) order_insert(by_bwfactor_, bwfactor_, l);
    } else {
      bwfactor_valid_ = by_bwfactor_valid_ = false;
      bwfactor_.clear();
      by_bwfactor_.clear();
    }
  }
  // A new edge can reroute any BFS tree (it is appended to its endpoints'
  // adjacency, but may shorten paths elsewhere): drop all rows.
  if (std::size_t built = built_row_count()) {
    rows_invalidated_full().inc(built);
    for (RowSlot& s : rows_) s.reset();
  }
}

void SelectionContext::apply_link_removed(topo::LinkId l) const {
  const auto il = static_cast<std::size_t>(l);
  if (csr_) {
    obs::ScopedTimer t(csr_patch_hist());
    csr_->patch_remove_link(graph(), l);
  }
  acyclic_ = -1;
  base_comps_.reset();
  if (bw_valid_ && il < bw_.size()) {
    if (by_bw_valid_) order_erase(by_bw_, bw_, l);
    bw_[il] = 0.0;  // what the snapshot now reports for the tombstoned link
  }
  if (bwfactor_valid_ && il < bwfactor_.size()) {
    if (by_bwfactor_valid_) order_erase(by_bwfactor_, bwfactor_, l);
    bwfactor_[il] = 0.0;
  }
  // Removing a non-tree edge never changes a BFS tree (the tree edge into
  // each node is the *first* edge reaching it in scan order; dropping a
  // later edge cannot promote an earlier one). Only rows whose tree used l
  // are dropped.
  for (RowSlot& s : rows_) {
    const RowEntry* e = s.get();
    if (e && tree_edge(e->row, l)) {
      s.reset();
      rows_invalidated_partial().inc();
    }
  }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool SelectionContext::acyclic() const {
  revalidate();
  if (acyclic_ == -1) acyclic_ = graph().is_acyclic() ? 1 : 0;
  return acyclic_ == 1;
}

const topo::CsrAdjacency& SelectionContext::csr() const {
  revalidate();
  if (!csr_)
    csr_ = std::make_unique<topo::CsrAdjacency>(
        topo::CsrAdjacency::build(graph()));
  return *csr_;
}

const std::vector<double>& SelectionContext::link_bw() const {
  revalidate();
  if (!bw_valid_) {
    bw_.resize(graph().link_count());
    for (std::size_t l = 0; l < bw_.size(); ++l)
      bw_[l] = snap_->bw(static_cast<topo::LinkId>(l));
    bw_valid_ = true;
  }
  return bw_;
}

const std::vector<double>& SelectionContext::link_bwfactor() const {
  revalidate();
  if (!bwfactor_valid_) {
    bwfactor_.resize(graph().link_count());
    for (std::size_t l = 0; l < bwfactor_.size(); ++l)
      bwfactor_[l] = snap_->bwfactor(static_cast<topo::LinkId>(l));
    bwfactor_valid_ = true;
  }
  return bwfactor_;
}

void SelectionContext::sync() const {
  (void)acyclic();
  (void)csr();
  (void)link_bw();
  (void)link_bwfactor();
  (void)links_by_bw();
  (void)links_by_bwfactor();
  (void)base_components();
  ensure_row_slots();
}

namespace {

std::vector<topo::LinkId> sorted_by(const topo::TopologyGraph& g,
                                    const std::vector<double>& key) {
  // Sort packed (key, id) pairs rather than ids under an indirect
  // comparator: every comparison then reads adjacent memory instead of two
  // random key[] slots, which roughly halves the sort on million-link
  // fabrics. Ascending by (key, id) — pair ordering gives the id tie-break
  // directly, matching the "lowest link id among minima" rule of the
  // per-iteration min-edge scan it replaces (ids are unique, so this is
  // exactly the stable sort by key).
  std::vector<std::pair<double, topo::LinkId>> keyed;
  keyed.reserve(key.size());
  // Tombstoned links are not deletable edges: they are already gone.
  for (std::size_t l = 0; l < key.size(); ++l)
    if (!g.link_removed(static_cast<topo::LinkId>(l)))
      keyed.emplace_back(key[l], static_cast<topo::LinkId>(l));
  std::sort(keyed.begin(), keyed.end());
  std::vector<topo::LinkId> order;
  order.reserve(keyed.size());
  for (const auto& [k, l] : keyed) order.push_back(l);
  return order;
}

}  // namespace

const std::vector<topo::LinkId>& SelectionContext::links_by_bw() const {
  const auto& bw = link_bw();
  if (!by_bw_valid_) {
    by_bw_ = sorted_by(graph(), bw);
    order_builds().inc();
    by_bw_valid_ = true;
  }
  return by_bw_;
}

std::size_t SelectionContext::first_link_at_or_above(double min_bw_bps) const {
  const auto& order = links_by_bw();
  if (min_bw_bps <= 0.0) return 0;
  const auto& bw = link_bw();
  auto it = std::lower_bound(order.begin(), order.end(), min_bw_bps,
                             [&](topo::LinkId l, double v) {
                               return bw[static_cast<std::size_t>(l)] < v;
                             });
  return static_cast<std::size_t>(it - order.begin());
}

const std::vector<topo::LinkId>& SelectionContext::links_by_bwfactor() const {
  const auto& f = link_bwfactor();
  if (!by_bwfactor_valid_) {
    by_bwfactor_ = sorted_by(graph(), f);
    order_builds().inc();
    by_bwfactor_valid_ = true;
  }
  return by_bwfactor_;
}

const topo::Components& SelectionContext::base_components() const {
  revalidate();
  if (!base_comps_) {
    base_comps_ =
        std::make_unique<topo::Components>(topo::connected_components(csr()));
  }
  return *base_comps_;
}

void SelectionContext::ensure_row_slots() const {
  if (rows_.size() != graph().node_count()) rows_.resize(graph().node_count());
}

std::size_t SelectionContext::built_row_count() const {
  std::size_t n = 0;
  for (const RowSlot& s : rows_)
    if (s.get()) ++n;
  return n;
}

void SelectionContext::new_row_entry(RowSlot& slot,
                                     topo::BottleneckRow row) const {
  auto e = std::make_unique<RowEntry>();
  e->row = std::move(row);
  // Built from the current weights: every logged change is already in.
  e->seen.store(log_.size(), std::memory_order_relaxed);
  slot.reset(e.release());
}

const topo::BottleneckRow& SelectionContext::pair_row(topo::NodeId src) const {
  // link_bw()/link_bwfactor() revalidate; rows_ is maintained alongside.
  const auto& bw = link_bw();
  const auto& f = link_bwfactor();
  ensure_row_slots();
  const auto i = static_cast<std::size_t>(src);
  RowSlot& slot = rows_[i];
  // Hit path: a current row is read without a lock.
  if (const RowEntry* e = slot.get();
      e && e->seen.load(std::memory_order_acquire) == log_.size()) {
    row_hits().inc();
    return e->row;
  }
  std::lock_guard<std::mutex> lock(row_locks_[i % kRowStripes]);
  if (RowEntry* e = slot.get()) {
    row_hits().inc();
    catch_up_row(*e);  // no-op if another reader just caught it up
    return e->row;
  }
  row_misses().inc();
  new_row_entry(slot, topo::bottleneck_row(csr(), src, bw, f));
  return slot.get()->row;
}

const topo::BottleneckRow& SelectionContext::read_row(topo::NodeId src) const {
  const auto& bw = link_bw();
  const auto& f = link_bwfactor();
  ensure_row_slots();
  RowSlot& slot = rows_[static_cast<std::size_t>(src)];
  if (slot.get() || slot.mark_read()) return pair_row(src);
  // First read: most sources of a one-shot evaluation are never read again,
  // and a cached O(V) row per source is what grows the context's memory.
  row_misses().inc();
  rows_transient().inc();
  thread_local topo::BottleneckRow scratch;
  topo::bottleneck_row(csr(), src, bw, f, scratch);
  return scratch;
}

std::size_t SelectionContext::cached_rows() const {
  revalidate();
  return built_row_count();
}

std::vector<char> SelectionContext::eligibility(
    const SelectionOptions& opt) const {
  std::vector<char> out(graph().node_count(), 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (node_eligible(*snap_, static_cast<topo::NodeId>(i), opt)) out[i] = 1;
  return out;
}

}  // namespace netsel::select
