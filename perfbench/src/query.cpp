// query: one client issuing one-shot select::select_nodes queries against a
// ~100k-host three-level fat-tree. Queries run in epochs of eight: each
// epoch reseeds the snapshot's load (outside the timed window), runs one
// cold query on a fresh SelectionContext and seven warm queries on it.
// Read-only: no deltas reach a live context, so catch-up never runs.
//
// The cold query always has one shape (max-bandwidth, m = 16, no fixed
// requirements): cold cost ranges over 6x across shapes, so a mixed cold
// sample would make cold_p50_ms depend on which shapes a run happened to
// reach. The warm queries follow the mix below.

#include <memory>

#include "remos/snapshot.hpp"
#include "select/algorithms.hpp"
#include "select/context.hpp"
#include "topo/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netsel;

constexpr int kQueriesPerEpoch = 8;
/// Eight epochs: the prefix that quality_mean and the counts cover.
constexpr std::uint64_t kPrefixQueries = 8 * kQueriesPerEpoch;
/// One warm query of every kCheckEvery-th epoch is re-run on the
/// snapshot form (a transient context) and must be bit-identical.
constexpr std::uint64_t kCheckEvery = 4;

/// Warm query `w` (counting warm queries only): 40% max-bandwidth, 40%
/// balanced, 20% max-compute.
select::Criterion criterion_of(std::uint64_t w) {
  static const select::Criterion cycle[5] = {
      select::Criterion::MaxBandwidth, select::Criterion::Balanced,
      select::Criterion::MaxBandwidth, select::Criterion::Balanced,
      select::Criterion::MaxCompute};
  return cycle[w % 5];
}

const char* span_name(select::Criterion c) {
  switch (c) {
    case select::Criterion::MaxCompute: return "select.query.max_compute";
    case select::Criterion::MaxBandwidth: return "select.query.max_bandwidth";
    case select::Criterion::Balanced: return "select.query.balanced";
  }
  return "select.query.balanced";
}

/// Warm query `w`: m cycles 4, 16, 64; a quarter carry min_bw_bps, a
/// quarter reference_bw, one in eight cpu_priority 2.
select::SelectionOptions options_of(std::uint64_t w) {
  static const int sizes[3] = {4, 16, 64};
  select::SelectionOptions opt;
  opt.num_nodes = sizes[w % 3];
  if (w % 4 == 1) opt.min_bw_bps = 0.3 * topo::k100Mbps;
  if (w % 4 == 2) opt.reference_bw = topo::kGbps;
  if (w % 8 == 3) opt.cpu_priority = 2.0;
  return opt;
}

/// Fractional criterion score of a result: min_cpu for max-compute,
/// min_bw_fraction for max-bandwidth, the objective for balanced.
double score(select::Criterion c, const select::SelectionResult& r) {
  if (!r.feasible) return 0.0;
  switch (c) {
    case select::Criterion::MaxCompute: return r.min_cpu;
    case select::Criterion::MaxBandwidth: return r.min_bw_fraction;
    case select::Criterion::Balanced: return r.objective;
  }
  return r.objective;
}

class QueryWorkload final : public Workload {
 public:
  explicit QueryWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    ctx_.reset();
    snap_.reset();
    graph_.reset();
    const auto t0 = Clock::now();
    graph_ = std::make_unique<topo::TopologyGraph>(topo::three_level_fat_tree(
        topo::three_level_fat_tree_for_hosts(100000, 48, 3.0, 1024, seed_)));
    topo_build_s_ = seconds_since(t0);
    snap_ = std::make_unique<remos::NetworkSnapshot>(*graph_);
    remos::apply_synthetic_load(*snap_, epoch_seed(0));
    ctx_ = std::make_unique<select::SelectionContext>(*snap_);
    next_ = 0;
    quality_sum_ = 0.0;
  }

  void step(Pass& pass) override {
    const std::uint64_t q = next_++;
    const std::uint64_t epoch = q / kQueriesPerEpoch;
    const bool cold = q % kQueriesPerEpoch == 0;
    if (cold && epoch > 0) remos::apply_synthetic_load(*snap_, epoch_seed(epoch));

    select::Criterion c = select::Criterion::MaxBandwidth;
    select::SelectionOptions opt;
    select::SelectionResult res;
    double ms = 0.0;
    {
      CountWindow cw(pass);
      const auto t0 = Clock::now();
      {
        Span s(pass.tracer, "bench.query_inputs");
        if (cold) {
          opt.num_nodes = 16;
        } else {
          const std::uint64_t w = q - epoch - 1;  // warm queries before q
          c = criterion_of(w);
          opt = options_of(w);
        }
      }
      const auto tq = Clock::now();
      if (cold) {
        Span s(pass.tracer, "select.cold_query");
        ctx_ = std::make_unique<select::SelectionContext>(*snap_);
        res = select::select_nodes(c, *ctx_, opt);
      } else {
        Span s(pass.tracer, span_name(c));
        res = select::select_nodes(c, *ctx_, opt);
      }
      ms = seconds_since(tq) * 1e3;
      pass.window_s += seconds_since(t0);
    }
    pass.latency_ms.push_back(ms);
    if (cold) pass.cold_ms.push_back(ms);
    ++pass.ops;
    ++pass.attempted;
    if (!res.feasible) ++pass.failed;
    if (q < kPrefixQueries) quality_sum_ += score(c, res);

    if (pass.check && epoch % kCheckEvery == 0 &&
        q % kQueriesPerEpoch == 1 + (epoch / kCheckEvery) % 7) {
      const auto ref = select::select_nodes(c, *snap_, opt);
      if (!same_result(res, ref))
        pass.errors.push_back("query " + std::to_string(q) +
                              ": warm result differs from the snapshot form");
    }
  }

  bool prefix_done() const override { return next_ >= kPrefixQueries; }
  double quality_mean() const override {
    return quality_sum_ / static_cast<double>(kPrefixQueries);
  }
  double topo_build_s() const override { return topo_build_s_; }

  void layer_metrics(const Pass& traced, std::map<std::string, double>& out)
      const override {
    const Tracer& tr = *traced.tracer;
    out["select.query_ms.max_compute"] =
        median(tr.durations("select.query.max_compute")) * 1e3;
    out["select.query_ms.max_bandwidth"] =
        median(tr.durations("select.query.max_bandwidth")) * 1e3;
    out["select.query_ms.balanced"] =
        median(tr.durations("select.query.balanced")) * 1e3;
    out["select.cold_query_ms"] = median(tr.durations("select.cold_query")) * 1e3;
  }

 private:
  std::uint64_t epoch_seed(std::uint64_t epoch) const {
    return seed_ * 1000003ull + epoch;
  }

  std::uint64_t seed_;
  std::unique_ptr<topo::TopologyGraph> graph_;
  std::unique_ptr<remos::NetworkSnapshot> snap_;
  std::unique_ptr<select::SelectionContext> ctx_;
  std::uint64_t next_ = 0;
  double quality_sum_ = 0.0;
  double topo_build_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_query(std::uint64_t seed) {
  return std::make_unique<QueryWorkload>(seed);
}

}  // namespace perfbench
