#pragma once
// NodeSelectionService: the glue of the paper's framework (§2) — takes an
// application specification, queries Remos for the network state, and runs
// the appropriate selection procedure, honouring per-group placement
// constraints (tags, pinned hosts) and group priorities.

#include "api/appspec.hpp"
#include "api/reselect.hpp"
#include "remos/remos.hpp"
#include "select/algorithms.hpp"

namespace netsel::api {

/// Graceful-degradation policy for selection under partial or stale
/// measurements. The service probes the snapshot query's QueryQuality and
/// walks the ladder: coverage >= smoothed_below keeps the caller's query
/// untouched (Full, bit-identical to the policy-less behaviour);
/// below it the query is re-run with an averaging forecaster and a
/// staleness bound (Smoothed); below prior_below the measurements are
/// abandoned for the capacity/zero-load prior snapshot (Prior). Selection
/// never throws because of missing measurements at any level.
struct DegradationPolicy {
  /// Coverage below this switches to the smoothing forecaster.
  double smoothed_below = 0.9;
  /// Coverage below this abandons measurements for the prior snapshot.
  double prior_below = 0.4;
  /// Forecaster for the Smoothed level; null -> WindowMean (bridges
  /// isolated dropped samples and averages out measurement noise).
  remos::ForecasterPtr smoothed_forecaster;
  /// Staleness bound applied at the Smoothed level; 0 -> the monitor's
  /// history window (a sensor silent for a full window answers its
  /// fallback — the per-sensor prior — instead of replaying old samples).
  double smoothed_max_age = 0.0;

  /// Throws std::invalid_argument when prior_below > smoothed_below.
  void validate() const;
};

/// The ladder rung for a measurement coverage under `policy`: Prior below
/// prior_below, Smoothed below smoothed_below, Full otherwise. Validates the
/// policy first. The one coverage-to-rung mapping: NodeSelectionService and
/// sched::SchedulerService both decide through it.
DegradationLevel degradation_level(const DegradationPolicy& policy,
                                   double coverage);

struct ServiceOptions {
  /// Criterion override; unset -> chosen from the app pattern
  /// (master-slave and loosely-synchronous default to Balanced).
  std::optional<select::Criterion> criterion;
  remos::QueryOptions query;
  DegradationPolicy degradation;
  /// Exact branch-and-bound mode (select/bnb.hpp), forwarded verbatim to
  /// every group's SelectionOptions. Off by default: placements keep the
  /// greedy fast paths; enable for certified-optimal (or certified-bound)
  /// placements of small groups.
  select::ExactOptions exact;
};

/// Default criterion for an application pattern.
select::Criterion default_criterion(AppPattern p);

/// Pre-register the service's observability metrics (degradation-rung
/// counters, candidate-set histogram, placement counters) in the global
/// registry so exporters list them with zero values even before any
/// placement ran. Idempotent and cheap; called automatically on first use.
void register_service_metrics();

class NodeSelectionService {
 public:
  explicit NodeSelectionService(remos::Remos& remos) : remos_(&remos) {}

  /// Select nodes for every group of the spec. Groups are placed in
  /// descending placement_priority (stable within equal priority); each
  /// group sees only nodes not taken by earlier groups. The degradation
  /// decision and measurement coverage are recorded on the Placement.
  Placement place(const AppSpec& spec, const ServiceOptions& opt = {}) const;

  /// Single-group convenience: select m nodes for a pattern. Honours the
  /// caller's ServiceOptions (degradation policy and query, like place())
  /// and runs through the shared SelectionContext path; a degraded
  /// selection is annotated in the result note. The explicit criterion
  /// argument wins over opt.criterion.
  select::SelectionResult select(int m, select::Criterion c,
                                 const ServiceOptions& opt = {}) const;
  /// Back-compatible form: a bare query under the default policy.
  select::SelectionResult select(int m, select::Criterion c,
                                 const remos::QueryOptions& q) const;

  /// Churn-aware bounded re-placement (api/reselect.hpp) of a running
  /// application's node set, against the degradation ladder's snapshot:
  /// keep-k-of-m with a migration budget instead of the MigrationController's
  /// free full re-selection.
  ReselectResult reselect(const std::vector<topo::NodeId>& current,
                          const ReselectOptions& ropt,
                          const ServiceOptions& opt = {}) const;

  /// The degradation ladder itself (shared by place/select, exposed for
  /// diagnostics): probe query quality, pick the level, and return the
  /// snapshot selection should run on. `quality` reflects the probe query.
  remos::NetworkSnapshot degraded_snapshot(const remos::QueryOptions& query,
                                           const DegradationPolicy& policy,
                                           DegradationLevel& level,
                                           remos::QueryQuality& quality) const;

 private:
  remos::Remos* remos_;
};

}  // namespace netsel::api
