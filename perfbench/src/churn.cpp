// churn: a long-lived SelectionContext on the 10k-host fat-tree keeping 32
// placements of 16 nodes alive while the network changes under them. One
// cycle is one Remos refresh:
//   1. write 64 sensor deltas (set_bw / set_loadavg); half the link deltas
//      hit four access links of one placement, so a link changes several
//      times per refresh;
//   2. catch the context up (first link_bw() after the refresh);
//   3. re-evaluate all 32 placements with select::evaluate_set;
//   4. api::reselect one placement with a migration budget of 2;
//   5. answer one new select_nodes query, which replaces another
//      placement (a job leaving and the next one arriving).
// Placements hold their nodes exclusively: queries and reselects see the
// other placements' nodes masked out.
//
// Every access-link delta touches every cached row, and the row cache keeps
// growing as placements move to new hosts, so a cycle gets dearer (and the
// process bigger) the longer one context lives. A run is therefore a
// sequence of fixed-size episodes of kEpisodeCycles cycles, each starting
// from a freshly loaded snapshot, a new context and 32 new placements
// (untimed turnover).

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/reselect.hpp"
#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "select/objective.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netsel;

constexpr int kPlacements = 32;
constexpr int kPlacementNodes = 16;
constexpr int kDeltasPerRefresh = 64;
constexpr int kBudget = 2;
constexpr std::uint64_t kEpisodeCycles = 100;
/// The prefix that quality_mean and the counts cover: the first episode.
constexpr std::uint64_t kPrefixCycles = kEpisodeCycles;
/// Every kCheckEvery-th cycle the new query is repeated on a fresh context
/// (untimed; its wall time is cold_p50_ms) and must be bit-identical.
constexpr std::uint64_t kCheckEvery = 16;

struct Write {
  bool link = false;
  std::int32_t id = 0;
  double value = 0.0;
};

class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    ctx_.reset();
    snap_.reset();
    graph_.reset();
    const auto t0 = Clock::now();
    graph_ = std::make_unique<topo::TopologyGraph>(
        topo::fat_tree(topo::fat_tree_for_hosts(10000, 48, 3.0, seed_)));
    topo_build_s_ = seconds_since(t0);
    hosts_ = graph_->compute_nodes();
    links_.clear();
    for (std::size_t l = 0; l < graph_->link_count(); ++l)
      links_.push_back(static_cast<topo::LinkId>(l));
    cycle_ = 0;
    quality_sum_ = 0.0;
    deltas_ = 0;
    start_episode(0);
  }

  void step(Pass& pass) override {
    const std::uint64_t c = cycle_++;
    const auto hot = static_cast<std::size_t>(c % kPlacements);
    const auto slot = static_cast<std::size_t>((c + kPlacements / 2) % kPlacements);
    Tracer* tr = pass.tracer;
    std::optional<CountWindow> cw(std::in_place, pass);
    const auto t0 = Clock::now();

    std::vector<Write> writes;
    {
      Span s(tr, "bench.refresh_inputs");
      writes = refresh(placements_[hot]);
    }
    const std::uint64_t epoch0 = snap_->epoch();
    {
      Span s(tr, "remos.write");
      for (const Write& w : writes) {
        if (w.link)
          snap_->set_bw(w.id, w.value);
        else
          snap_->set_loadavg(w.id, w.value);
      }
    }
    deltas_ += snap_->epoch() - epoch0;
    {
      Span s(tr, "select.catchup");
      ctx_->link_bw();
    }
    {
      Span s(tr, "select.evaluate");
      const select::SelectionOptions opt;
      for (const auto& p : placements_) select::evaluate_set(*ctx_, p, opt);
    }
    api::ReselectOptions ropt;
    {
      Span s(tr, "bench.mask");
      ropt.max_migrations = kBudget;
      ropt.criterion = select::Criterion::Balanced;
      ropt.selection = query_options(&placements_[hot]);
    }
    api::ReselectResult moved;
    {
      Span s(tr, "api.reselect");
      moved = api::reselect(*ctx_, placements_[hot], ropt);
    }
    select::SelectionOptions qopt;
    {
      Span s(tr, "bench.mask");
      if (moved.feasible) hold(placements_[hot], moved.nodes);
      qopt = query_options(&placements_[slot]);
    }
    select::SelectionResult res;
    {
      Span s(tr, "select.query");
      res = select::select_nodes(select::Criterion::Balanced, *ctx_, qopt);
    }
    {
      Span s(tr, "bench.mask");
      if (res.feasible) hold(placements_[slot], res.nodes);
    }
    const double secs = seconds_since(t0);
    cw.reset();
    pass.window_s += secs;
    pass.latency_ms.push_back(secs * 1e3);
    ++pass.ops;
    ++pass.attempted;
    if ((!moved.feasible && !moved.kept_current) || !res.feasible) ++pass.failed;
    if (c < kPrefixCycles) quality_sum_ += (moved.objective_after + res.objective) / 2.0;

    if (moved.migrations > kBudget)
      pass.errors.push_back("cycle " + std::to_string(c) + ": reselect made " +
                            std::to_string(moved.migrations) +
                            " migrations over a budget of 2");
    if (pass.check && c % kCheckEvery == 0) {
      const auto tc = Clock::now();
      select::SelectionContext fresh(*snap_);
      const auto ref = select::select_nodes(select::Criterion::Balanced, fresh, qopt);
      pass.cold_ms.push_back(seconds_since(tc) * 1e3);
      if (!same_result(res, ref))
        pass.errors.push_back("cycle " + std::to_string(c) +
                              ": warm result differs from a fresh context");
    }
    if (cycle_ % kEpisodeCycles == 0) start_episode(cycle_ / kEpisodeCycles);
  }

  bool prefix_done() const override { return cycle_ >= kPrefixCycles; }
  double quality_mean() const override {
    return quality_sum_ / static_cast<double>(kPrefixCycles);
  }
  double topo_build_s() const override { return topo_build_s_; }

  void layer_metrics(const Pass& traced, std::map<std::string, double>& out)
      const override {
    const Tracer& tr = *traced.tracer;
    out["remos.write_us_per_delta"] =
        median(tr.durations("remos.write")) * 1e6 / kDeltasPerRefresh;
    out["remos.deltas_per_op"] =
        static_cast<double>(deltas_) / static_cast<double>(traced.ops);
    out["select.catchup_ms"] = median(tr.durations("select.catchup")) * 1e3;
    out["select.evaluate_ms"] = median(tr.durations("select.evaluate")) * 1e3;
    out["api.reselect_ms"] = median(tr.durations("api.reselect")) * 1e3;
  }

 private:
  /// Fresh snapshot load, context, delta stream and 32 placements.
  void start_episode(std::uint64_t episode) {
    ctx_.reset();
    snap_ = std::make_unique<remos::NetworkSnapshot>(*graph_);
    const std::uint64_t seed = seed_ * 1000003ull + episode;
    remos::apply_synthetic_load(*snap_, seed + 7);
    ctx_ = std::make_unique<select::SelectionContext>(*snap_);
    rng_ = std::make_unique<util::Rng>(seed, "perfbench.churn");
    held_.assign(graph_->node_count(), 0);
    placements_.assign(kPlacements, {});
    for (auto& p : placements_) {
      auto res = select::select_nodes(select::Criterion::Balanced, *ctx_,
                                      query_options(nullptr));
      if (!res.feasible) throw std::runtime_error("initial placement infeasible");
      hold(p, res.nodes);
    }
  }

  /// Balanced m = 16 with every node another placement holds masked out
  /// (`own` may be kept; null = no own placement).
  select::SelectionOptions query_options(const std::vector<topo::NodeId>* own) const {
    select::SelectionOptions opt;
    opt.num_nodes = kPlacementNodes;
    opt.eligible.assign(graph_->node_count(), 0);
    for (topo::NodeId h : hosts_)
      opt.eligible[static_cast<std::size_t>(h)] = held_[static_cast<std::size_t>(h)] == 0;
    if (own)
      for (topo::NodeId n : *own) opt.eligible[static_cast<std::size_t>(n)] = 1;
    return opt;
  }

  void hold(std::vector<topo::NodeId>& p, const std::vector<topo::NodeId>& nodes) {
    for (topo::NodeId n : p) held_[static_cast<std::size_t>(n)] = 0;
    p = nodes;
    for (topo::NodeId n : p) held_[static_cast<std::size_t>(n)] = 1;
  }

  /// 64 sensor writes: 16 link writes spread over the access links of four
  /// hosts of the hot placement, 16 on uniformly drawn links, 16 load
  /// writes on placed hosts and 16 on uniformly drawn hosts.
  std::vector<Write> refresh(const std::vector<topo::NodeId>& hot) {
    util::Rng& rng = *rng_;
    auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    std::vector<topo::LinkId> access;
    for (std::size_t i = 0; i < 4 && i < hot.size(); ++i) {
      const auto span = graph_->links_of(hot[i]);
      access.insert(access.end(), span.begin(), span.end());
    }
    std::vector<Write> out;
    out.reserve(kDeltasPerRefresh);
    for (int i = 0; i < kDeltasPerRefresh / 4; ++i) {
      const topo::LinkId l = access[pick(access.size())];
      out.push_back({true, l, rng.uniform(0.1, 1.0) * snap_->maxbw(l)});
    }
    for (int i = 0; i < kDeltasPerRefresh / 4; ++i) {
      const topo::LinkId l = links_[pick(links_.size())];
      out.push_back({true, l, rng.uniform(0.1, 1.0) * snap_->maxbw(l)});
    }
    for (int i = 0; i < kDeltasPerRefresh / 4; ++i) {
      const auto& p = placements_[pick(placements_.size())];
      out.push_back({false, p[pick(p.size())], rng.uniform(0.0, 4.0)});
    }
    for (int i = 0; i < kDeltasPerRefresh / 4; ++i)
      out.push_back({false, hosts_[pick(hosts_.size())], rng.uniform(0.0, 4.0)});
    return out;
  }

  std::uint64_t seed_;
  std::unique_ptr<topo::TopologyGraph> graph_;
  std::unique_ptr<remos::NetworkSnapshot> snap_;
  std::unique_ptr<select::SelectionContext> ctx_;
  std::unique_ptr<util::Rng> rng_;
  std::vector<topo::NodeId> hosts_;
  std::vector<topo::LinkId> links_;
  std::vector<char> held_;
  std::vector<std::vector<topo::NodeId>> placements_;
  std::uint64_t cycle_ = 0;
  std::uint64_t deltas_ = 0;
  double quality_sum_ = 0.0;
  double topo_build_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_churn(std::uint64_t seed) {
  return std::make_unique<ChurnWorkload>(seed);
}

}  // namespace perfbench
