#pragma once
// SelectionContext: shared, cached per-snapshot state for the selection
// stack.
//
// The paper's Fig. 2/3 algorithms and the exact pairwise objective are
// defined operationally — "delete the minimum-bandwidth edge, recompute
// connected components", "minimum bottleneck bandwidth over all selected
// pairs" — and the original implementations executed those definitions
// literally on every call: O(E) component sweeps per edge deletion and one
// BFS per node pair per evaluation, with nothing shared across algorithms,
// placement groups, or migration re-checks.
//
// A SelectionContext is built once per remos::NetworkSnapshot and caches
// everything that depends only on the snapshot (not on the per-call
// SelectionOptions):
//
//   - the edge-deletion orders of Fig. 2 (ascending available bandwidth)
//     and Fig. 3 (ascending fractional bandwidth), sorted once;
//   - per-source bottleneck-bandwidth rows along the deterministic BFS
//     tree (topo::bottleneck_row) — on acyclic graphs these are exactly
//     the widest-path bottlenecks, and they make the pairwise
//     min-bandwidth objective an O(1) lookup per pair; rows are built
//     lazily, so a context costs nothing until queried;
//   - the base connected-component decomposition (all links active).
//
// Row lifecycle. A row is O(V) (about 3.5 MB at 100k hosts), so which
// sources get one decides the context's memory. pair_row() caches a row
// on its first read: brute_force and bnb hold many rows at once and read
// each many times. read_row(), the accessor evaluate_set uses, admits a
// row on its *second* read: the first read of a source builds the row
// into a per-thread scratch row and only marks the source (a relaxed
// atomic byte in its slot); a later read caches it as pair_row() does.
// A one-shot evaluation (the trailing evaluate_set of a max-bandwidth
// query, a fresh context's check) then caches nothing, while a source
// read again and again (a running job rescored, a churn cycle's
// placements) is cached from its second read on. Either way a read
// returns the same values, bit for bit. A cached row lives until a
// structural delta that can change its tree or a full invalidation
// drops it; weight deltas repair it lazily (below).
//
// Validity contract: the snapshot carries an epoch counter bumped on every
// mutation plus a bounded journal of typed deltas (remos/delta.hpp). Each
// accessor revalidates against snapshot().epoch(); when the journal still
// covers the missed range, the context consumes the deltas with
// *fine-grained* invalidation instead of dropping everything:
//
//   - node load/memory deltas touch nothing cached here (eligibility and
//     cpu rankings are per-call state);
//   - a link-bandwidth delta repositions the link inside the cached
//     deletion orders (binary erase + sorted reinsert, identical to a
//     re-sort), patches the two weight arrays, and appends the link to a
//     changed-link log. Row repair is *deferred*: pair_row() replays the
//     log entries a row has not seen and repairs the row in place for the
//     tree links among them. The BFS tree is weight-independent and a
//     repair always reads the final weights, so replaying the
//     min-recurrence is bit-identical to a rebuild in any repair order;
//     an entry superseded by a later change of the same link is skipped,
//     so N deltas on one link cost one repair (a pending link at the
//     row's source instead replays the whole discovery order once, which
//     covers the rest). The log is flushed (every built row caught up,
//     then cleared) before a structural delta, on a full invalidation,
//     and when it grows longer than the link count;
//   - structural deltas patch the cached CSR adjacency in place
//     (topo::CsrAdjacency::patch_*); link removal drops only the rows whose
//     tree used that link, link addition drops all rows (the tree may
//     reroute), node addition extends rows with an unreached entry.
//
// When the journal has been trimmed past the context's epoch the context
// falls back to the historical behaviour: drop every cache. The referenced
// snapshot (and its graph) must outlive the context.
//
// The hot path reads one graph: csr() plus the context's two per-link
// weight arrays (link_bw(), link_bwfactor()). Every row is built by
// topo::bottleneck_row over them.
//
// Threading: catch-up mutates the caches, so it is serial — while the
// snapshot is being mutated or the context is behind it, one thread at a
// time. After sync() has caught up and built every shared cache, and until
// the snapshot next mutates, any number of threads may call the const
// accessors other than sync() (and select_nodes / evaluate_set over them)
// concurrently: the only remaining lazy state is the bottleneck rows, which
// are built and repaired under a per-row striped lock and published
// atomically. A row that is already current is read without taking any
// lock.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "remos/snapshot.hpp"
#include "select/options.hpp"
#include "topo/connectivity.hpp"
#include "topo/graph.hpp"

namespace netsel::select {

class SelectionContext {
 public:
  /// Cheap: records the snapshot and its epoch; all caches fill on demand.
  explicit SelectionContext(const remos::NetworkSnapshot& snap);

  const remos::NetworkSnapshot& snapshot() const { return *snap_; }
  const topo::TopologyGraph& graph() const { return snap_->graph(); }

  /// Epoch of the snapshot the current caches were built against.
  std::uint64_t epoch() const { return epoch_; }
  /// True while the snapshot has not been mutated since the caches were
  /// (re)built. Accessors below revalidate automatically.
  bool current() const { return epoch_ == snap_->epoch(); }

  /// Catch up with the snapshot and build every shared cache (CSR, both
  /// weight arrays, both deletion orders, base components, acyclicity, row
  /// slots). Until the snapshot next mutates, the const accessors may then
  /// run on many threads at once (see the threading note above); the
  /// bottleneck rows stay lazy and catch up on their next read.
  void sync() const;

  /// Cached graph().is_acyclic(); invalidated only by structural deltas.
  bool acyclic() const;

  /// Cached flat CSR view of the topology: the adjacency the component and
  /// bottleneck kernels run on. Built once, then *patched in place*
  /// under structural deltas (host/link add/remove) instead of rebuilt.
  /// Preserves links_of() order, so BFS trees — and hence every bottleneck
  /// value — are bit-identical to the TopologyGraph kernels.
  const topo::CsrAdjacency& csr() const;

  /// Available bandwidth per link, copied out of the snapshot (dense, for
  /// the row kernel and the deletion orders).
  const std::vector<double>& link_bw() const;
  /// Fraction-of-peak (bwfactor) per link.
  const std::vector<double>& link_bwfactor() const;

  /// Links sorted ascending by (available bw, id): the Fig. 2 deletion
  /// sequence. The links masked out by a fixed-bandwidth requirement are
  /// exactly a prefix of this order.
  const std::vector<topo::LinkId>& links_by_bw() const;
  /// Index of the first entry of links_by_bw() with bw >= min_bw_bps; the
  /// suffix from here is the active-link deletion sequence under that
  /// requirement.
  std::size_t first_link_at_or_above(double min_bw_bps) const;

  /// Links sorted ascending by (bwfactor, id): the Fig. 3 deletion sequence
  /// when no reference link capacity is set. (With one, fractions are
  /// rounded per call, so select_balanced sorts them itself.)
  const std::vector<topo::LinkId>& links_by_bwfactor() const;

  /// Connected components with every link active (the initial state of the
  /// unconstrained algorithms).
  const topo::Components& base_components() const;

  /// Cached bottleneck row from `src` over the full graph: bottleneck =
  /// available bandwidth, bottleneck2 = bwfactor, plus path latency and
  /// reachability, along the same deterministic BFS paths evaluate_set and
  /// bfs_path trace. Built lazily per source, O(V + E) once, and cached on
  /// its first read. The reference stays valid until the next catch-up, so
  /// callers may hold many rows at once (brute_force, bnb).
  const topo::BottleneckRow& pair_row(topo::NodeId src) const;

  /// The same row for a caller that reads one row at a time (evaluate_set).
  /// A cached row is returned as pair_row() returns it. A source's first
  /// read builds the row into a per-thread scratch row without caching it;
  /// a later read caches it as pair_row() does. A scratch reference stays
  /// valid only until the calling thread's next read_row().
  const topo::BottleneckRow& read_row(topo::NodeId src) const;

  /// Number of bottleneck rows currently cached.
  std::size_t cached_rows() const;

  /// Fractional bottleneck from a pair_row() under the options' reference
  /// rules (bw / reference_bw, or the cached bwfactor bottleneck).
  static double row_fraction(const topo::BottleneckRow& row, topo::NodeId dst,
                             const SelectionOptions& opt) {
    if (opt.reference_bw > 0.0)
      return row.bottleneck[static_cast<std::size_t>(dst)] / opt.reference_bw;
    return row.bottleneck2[static_cast<std::size_t>(dst)];
  }

  /// Per-node eligibility under `opt` (compute, mask, min-cpu, memory).
  /// Options-dependent, so computed per call — O(V), not cached.
  std::vector<char> eligibility(const SelectionOptions& opt) const;

 private:
  /// A cached bottleneck row and how far into the changed-link log it has
  /// been repaired.
  struct RowEntry {
    topo::BottleneckRow row;
    /// Log entries [0, seen) are applied to `row`. Stored under the row's
    /// stripe lock (release), read lock-free on the hit path (acquire).
    std::atomic<std::size_t> seen{0};
  };
  /// Owning row pointer, published atomically so a reader that finds a
  /// current row needs no lock, plus the source's read-before mark for
  /// read_row(). Movable only while no reader runs (slot vector growth
  /// happens during serial catch-up).
  class RowSlot {
   public:
    RowSlot() = default;
    RowSlot(RowSlot&& o) noexcept
        : p_(o.p_.exchange(nullptr, std::memory_order_relaxed)),
          read_(o.read_.load(std::memory_order_relaxed)) {}
    RowSlot& operator=(RowSlot&&) = delete;
    ~RowSlot() { delete p_.load(std::memory_order_relaxed); }
    RowEntry* get() const { return p_.load(std::memory_order_acquire); }
    void reset(RowEntry* e = nullptr) {
      delete p_.exchange(e, std::memory_order_acq_rel);
    }
    /// Mark the source read; true iff it had been read before. Relaxed:
    /// the mark only decides whether a row is cached, never its values.
    bool mark_read() {
      return read_.exchange(1, std::memory_order_relaxed) != 0;
    }

   private:
    std::atomic<RowEntry*> p_{nullptr};
    std::atomic<std::uint8_t> read_{0};
  };
  static constexpr std::size_t kRowStripes = 64;

  /// Catch up with the snapshot: consume the missed deltas fine-grainedly,
  /// or drop every cache when the journal no longer covers the gap.
  void revalidate() const;
  void invalidate_all() const;
  void apply_delta(const remos::Delta& d) const;
  void apply_link_bandwidth(topo::LinkId l) const;
  void apply_node_added(topo::NodeId n) const;
  void apply_node_removed(topo::NodeId n) const;
  void apply_link_added(topo::LinkId l) const;
  void apply_link_removed(topo::LinkId l) const;
  /// Apply the log entries `e` has not seen: repair it for every tree link
  /// whose latest change is among them. Caller holds e's stripe lock or
  /// runs serially.
  void catch_up_row(RowEntry& e) const;
  /// Catch every built row up with the changed-link log, then clear it.
  void flush_log() const;
  /// True iff link `l` is an edge of `row`'s BFS tree, i.e. it discovered
  /// one of its endpoints. O(1); valid for every link that existed when the
  /// row was built (a link added later drops every row).
  bool tree_edge(const topo::BottleneckRow& row, topo::LinkId l) const;
  /// Publish a row built from the current weights in `slot`.
  void new_row_entry(RowSlot& slot, topo::BottleneckRow row) const;
  /// Replay the bottleneck min-recurrence with the current weight arrays
  /// over the tree subtree hanging below changed link `l` (tree unchanged
  /// -> bit-identical to rebuild; nodes outside that subtree cannot have
  /// changed). For a fat-tree access link the subtree is a single leaf.
  void repair_row_values(RowEntry& e, topo::LinkId l) const;
  /// Replay the recurrence over the row's whole discovery order.
  void replay_row(RowEntry& e) const;
  void ensure_row_slots() const;
  std::size_t built_row_count() const;

  const remos::NetworkSnapshot* snap_;
  mutable std::uint64_t epoch_;
  mutable int acyclic_ = -1;  // tri-state: unknown / no / yes
  mutable std::unique_ptr<topo::CsrAdjacency> csr_;
  mutable std::vector<double> bw_;
  mutable std::vector<double> bwfactor_;
  mutable std::vector<topo::LinkId> by_bw_;
  mutable std::vector<topo::LinkId> by_bwfactor_;
  /// Explicit validity flags: under link removal the cached vectors no
  /// longer track link_count(), so "wrong size" is not a usable dirtiness
  /// signal.
  mutable bool bw_valid_ = false;
  mutable bool bwfactor_valid_ = false;
  mutable bool by_bw_valid_ = false;
  mutable bool by_bwfactor_valid_ = false;
  mutable std::unique_ptr<topo::Components> base_comps_;
  mutable std::vector<RowSlot> rows_;
  mutable std::array<std::mutex, kRowStripes> row_locks_;
  /// Changed-link log: links whose weights changed, in delta order, with
  /// last_change_[l] the index of l's latest entry. Appended and cleared
  /// only during serial catch-up.
  mutable std::vector<topo::LinkId> log_;
  mutable std::vector<std::size_t> last_change_;
  mutable std::vector<remos::Delta> pending_;  // revalidate scratch
};

}  // namespace netsel::select
