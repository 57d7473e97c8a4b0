// sched::SchedulerService — the placement-as-a-service loop. Covers the
// admit -> queue -> place -> release state machine transitions, admission
// rejection and queue timeouts, the bit-identity of state_digest() across
// thread counts, lane counts and journal capacities (the bench_service
// headline contract), exact snapshot
// restore after drain(), the per-tenant degradation ladder under partial
// measurement coverage, the rebalance path honouring a kept_current
// reselect, release and rebalance past a host removed from the topology,
// the rebalancer's score cache against a full rescore, and the
// determinism of the JobStream workload generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "remos/snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netsel::sched {
namespace {

topo::TopologyGraph small_fabric(std::uint64_t seed = 11) {
  return topo::fat_tree(topo::fat_tree_for_hosts(32, 8, 2.0, seed));
}

std::vector<topo::NodeId> computes(const topo::TopologyGraph& g) {
  std::vector<topo::NodeId> out;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.is_compute(static_cast<topo::NodeId>(i)))
      out.push_back(static_cast<topo::NodeId>(i));
  return out;
}

WorkloadConfig pressured_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.seed = seed;
  w.arrival_rate = 2.0;  // high pressure on a small fabric: queueing fires
  return w;
}

TEST(SchedulerService, LifecycleTransitions) {
  auto g = small_fabric();
  SchedulerService sched(g);

  JobSpec spec;
  spec.nodes = 4;
  spec.duration = 50.0;
  const std::uint64_t id = sched.submit(spec, 5.0);

  sched.run_until(4.0);
  EXPECT_EQ(sched.job(id).state, JobState::Submitted);
  EXPECT_DOUBLE_EQ(sched.now(), 4.0);

  sched.run_until(5.0);  // arrival fires, default cadence places immediately
  const JobRecord& running = sched.job(id);
  EXPECT_EQ(running.state, JobState::Running);
  EXPECT_DOUBLE_EQ(running.start_time, 5.0);
  EXPECT_DOUBLE_EQ(running.wait_time(), 0.0);
  EXPECT_EQ(running.nodes.size(), 4u);
  EXPECT_TRUE(std::is_sorted(running.nodes.begin(), running.nodes.end()));
  EXPECT_GT(running.objective, 0.0);
  EXPECT_GT(running.candidates, 0u);
  EXPECT_EQ(sched.stats().running, 1u);

  sched.run_until(100.0);
  const JobRecord& done = sched.job(id);
  EXPECT_EQ(done.state, JobState::Completed);
  EXPECT_DOUBLE_EQ(done.finish_time, 55.0);
  EXPECT_EQ(done.nodes.size(), 4u);  // final placement kept on the record
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 1u);
  EXPECT_EQ(st.admitted, 1u);
  EXPECT_EQ(st.placed, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queued, 0u);
}

TEST(SchedulerService, AdmissionRejectsWhenQueueFull) {
  auto g = small_fabric();
  SchedulerConfig cfg;
  cfg.max_queue_depth = 1;
  SchedulerService sched(g, cfg);

  JobSpec impossible;
  impossible.nodes = 1000;  // far more hosts than the fabric has
  const std::uint64_t first = sched.submit(impossible, 1.0);
  const std::uint64_t second = sched.submit(impossible, 2.0);
  sched.run_until(3.0);

  EXPECT_EQ(sched.job(first).state, JobState::Queued);
  EXPECT_GT(sched.job(first).infeasible_attempts, 0);
  EXPECT_EQ(sched.job(second).state, JobState::Rejected);
  EXPECT_FALSE(sched.job(second).note.empty());
  EXPECT_EQ(sched.stats().rejected, 1u);
  EXPECT_EQ(sched.queued_jobs(), std::vector<std::uint64_t>{first});
  EXPECT_GT(sched.stats().infeasible_attempts, 0u);
}

TEST(SchedulerService, QueueTimeoutFires) {
  auto g = small_fabric();
  SchedulerConfig cfg;
  cfg.queue_timeout = 10.0;
  SchedulerService sched(g, cfg);

  JobSpec impossible;
  impossible.nodes = 1000;
  const std::uint64_t id = sched.submit(impossible, 0.0);
  sched.run_until(9.0);
  EXPECT_EQ(sched.job(id).state, JobState::Queued);
  sched.run_until(10.0);
  const JobRecord& rec = sched.job(id);
  EXPECT_EQ(rec.state, JobState::TimedOut);
  EXPECT_DOUBLE_EQ(rec.finish_time, 10.0);
  EXPECT_DOUBLE_EQ(rec.wait_time(), -1.0);  // never started
  EXPECT_EQ(sched.stats().timed_out, 1u);
  EXPECT_TRUE(sched.queued_jobs().empty());
}

// The headline contract: a seeded run is a pure function of (topology,
// initial state, submitted jobs, config) — the worker pool and its thread
// count must not be observable in the state digest.
TEST(SchedulerService, DigestBitIdenticalAcrossThreadCounts) {
  auto g = small_fabric(23);
  auto run_once = [&](util::ThreadPool* pool) {
    SchedulerConfig cfg;
    cfg.placement_lanes = 3;
    cfg.backfill_window = 6;
    cfg.schedule_interval = 1.0;  // batched rounds: conflicts can fire
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.pool = pool;
    SchedulerService sched(g, cfg);
    remos::apply_synthetic_load(sched.snapshot(), 77);
    JobStream stream(pressured_workload(5));
    stream.feed(sched, 40);
    sched.drain();
    EXPECT_GT(sched.stats().placed, 0u);
    return sched.state_digest();
  };

  const std::uint64_t serial = run_once(nullptr);
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  EXPECT_EQ(serial, run_once(&two));
  EXPECT_EQ(serial, run_once(&four));
}

// Every lane reads one shared context. With a four-entry journal that
// context takes the full-rebuild path mid-run; neither that, the lane count
// nor the pool may show in the digest.
TEST(SchedulerService, SharedContextDigestInvariantAcrossLanesPoolsJournal) {
  auto g = small_fabric(29);
  auto run_once = [&](int lanes, util::ThreadPool* pool,
                      std::size_t journal_capacity) {
    SchedulerConfig cfg;
    cfg.placement_lanes = lanes;
    cfg.backfill_window = 6;
    cfg.schedule_interval = 1.0;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.journal_capacity = journal_capacity;
    cfg.pool = pool;
    SchedulerService sched(g, cfg);
    remos::apply_synthetic_load(sched.snapshot(), 91);
    JobStream stream(pressured_workload(9));
    stream.feed(sched, 40);
    sched.drain();
    EXPECT_GT(sched.stats().placed, 0u);
    EXPECT_GT(sched.stats().rebalance_attempts, 0u);
    return sched.state_digest();
  };

  const bool obs_was_on = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& rebuilds =
      obs::Registry::global().counter("select.ctx.invalidations");
  const std::uint64_t reference =
      run_once(4, nullptr, SchedulerConfig{}.journal_capacity);
  const std::uint64_t rebuilds0 = rebuilds.value();
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  for (int lanes : {1, 2, 4}) {
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                   &two, &four}) {
      EXPECT_EQ(run_once(lanes, pool, 4), reference)
          << "lanes " << lanes << " pool "
          << (pool ? std::to_string(pool->workers()) : std::string("none"));
    }
  }
  EXPECT_GT(rebuilds.value(), rebuilds0);  // the rebuild path really ran
  obs::set_enabled(obs_was_on);
}

TEST(SchedulerService, DrainRestoresSnapshotExactly) {
  auto g = small_fabric(31);
  remos::NetworkSnapshot reference(g);
  remos::apply_synthetic_load(reference, 99);

  SchedulerConfig cfg;
  cfg.schedule_interval = 0.5;
  cfg.rebalance_on_release = true;
  SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 99);
  JobStream stream(pressured_workload(9));
  stream.feed(sched, 30);
  sched.drain();
  ASSERT_GT(sched.stats().placed, 0u);
  EXPECT_EQ(sched.stats().running, 0u);

  // Release is an exact inverse of allocate: every sensor reading is back
  // to its pre-run value, bit for bit.
  for (std::size_t n = 0; n < g.node_count(); ++n)
    EXPECT_EQ(sched.snapshot().cpu(static_cast<topo::NodeId>(n)),
              reference.cpu(static_cast<topo::NodeId>(n)))
        << "cpu not restored on node " << n;
  for (std::size_t l = 0; l < g.link_count(); ++l) {
    const auto id = static_cast<topo::LinkId>(l);
    EXPECT_EQ(sched.snapshot().bw_dir(id, true), reference.bw_dir(id, true))
        << "fwd bw not restored on link " << l;
    EXPECT_EQ(sched.snapshot().bw_dir(id, false), reference.bw_dir(id, false))
        << "rev bw not restored on link " << l;
  }
}

TEST(SchedulerService, ConcurrentJobsNeverShareNodes) {
  auto g = small_fabric(37);
  SchedulerConfig cfg;
  cfg.schedule_interval = 1.0;
  cfg.backfill_window = 8;
  SchedulerService sched(g, cfg);
  JobStream stream(pressured_workload(3));
  stream.feed(sched, 30);
  sched.drain();

  const auto& jobs = sched.jobs();
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    if (jobs[a].start_time < 0.0 || jobs[a].migrations > 0) continue;
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (jobs[b].start_time < 0.0 || jobs[b].migrations > 0) continue;
      if (jobs[a].finish_time <= jobs[b].start_time ||
          jobs[b].finish_time <= jobs[a].start_time)
        continue;  // disjoint in time
      for (topo::NodeId n : jobs[a].nodes)
        EXPECT_FALSE(std::count(jobs[b].nodes.begin(), jobs[b].nodes.end(), n))
            << "jobs " << jobs[a].id << " and " << jobs[b].id
            << " overlap in time and share node " << n;
    }
  }
}

TEST(SchedulerService, LadderFollowsTenantPolicyAndCoverage) {
  auto g = small_fabric(41);
  SchedulerService sched(g);

  TenantPolicy tolerant;  // falls to Smoothed early, resists Prior
  tolerant.degradation.smoothed_below = 0.9;
  tolerant.degradation.prior_below = 0.2;
  TenantPolicy strict;  // abandons measurements quickly
  strict.degradation.smoothed_below = 0.9;
  strict.degradation.prior_below = 0.8;
  sched.set_tenant_policy("tolerant", tolerant);
  sched.set_tenant_policy("strict", strict);

  JobSpec spec;
  spec.nodes = 3;
  spec.duration = 5.0;
  spec.tenant = "tolerant";
  // An impossible fixed requirement: only placeable if the Smoothed rung
  // drops it, as the ladder contract says it must.
  spec.min_cpu_fraction = 2.0;
  sched.set_measurement_coverage(0.5);
  const std::uint64_t smoothed_id = sched.submit(spec, 1.0);
  JobSpec strict_spec;
  strict_spec.nodes = 3;
  strict_spec.duration = 5.0;
  strict_spec.tenant = "strict";
  const std::uint64_t prior_id = sched.submit(strict_spec, 1.0);
  sched.run_until(2.0);

  EXPECT_EQ(sched.job(smoothed_id).state, JobState::Running);
  EXPECT_EQ(sched.job(smoothed_id).ladder, api::DegradationLevel::Smoothed);
  EXPECT_EQ(sched.job(prior_id).state, JobState::Running);
  EXPECT_EQ(sched.job(prior_id).ladder, api::DegradationLevel::Prior);

  // Restored coverage: back to the Full rung, fixed requirements enforced
  // again (the impossible one now blocks placement).
  sched.set_measurement_coverage(1.0);
  const std::uint64_t full_id = sched.submit(strict_spec, 20.0);
  const std::uint64_t blocked_id = [&] {
    JobSpec s = spec;
    s.tenant = "strict";
    return sched.submit(s, 20.0);
  }();
  sched.run_until(21.0);
  EXPECT_EQ(sched.job(full_id).ladder, api::DegradationLevel::Full);
  EXPECT_EQ(sched.job(full_id).state, JobState::Running);
  EXPECT_EQ(sched.job(blocked_id).state, JobState::Queued);
  EXPECT_GT(sched.job(blocked_id).infeasible_attempts, 0);
}

// The scheduler and api::NodeSelectionService share one coverage-to-rung
// mapping: a coverage equal to a threshold stays on the upper rung, and an
// inverted policy (prior_below > smoothed_below) is rejected up front
// instead of silently mapping coverages differently from the api.
TEST(SchedulerService, LadderBoundariesAndInvertedPolicy) {
  auto g = small_fabric(43);
  SchedulerService sched(g);
  TenantPolicy policy;
  policy.degradation.smoothed_below = 0.7;
  policy.degradation.prior_below = 0.4;
  sched.set_tenant_policy("t", policy);

  JobSpec spec;
  spec.nodes = 2;
  spec.duration = 5.0;
  spec.tenant = "t";
  const std::pair<double, api::DegradationLevel> cases[] = {
      {0.7, api::DegradationLevel::Full},
      {0.4, api::DegradationLevel::Smoothed},
      {0.39, api::DegradationLevel::Prior},
  };
  double t = 1.0;
  for (const auto& [coverage, level] : cases) {
    EXPECT_EQ(api::degradation_level(policy.degradation, coverage), level);
    sched.set_measurement_coverage(coverage);
    const std::uint64_t id = sched.submit(spec, t);
    sched.run_until(t + 1.0);
    EXPECT_EQ(sched.job(id).state, JobState::Running) << coverage;
    EXPECT_EQ(sched.job(id).ladder, level) << coverage;
    t += 10.0;
  }

  TenantPolicy inverted;
  inverted.degradation.smoothed_below = 0.3;
  inverted.degradation.prior_below = 0.8;
  EXPECT_THROW(sched.set_tenant_policy("inverted", inverted),
               std::invalid_argument);
  EXPECT_THROW(api::degradation_level(inverted.degradation, 0.5),
               std::invalid_argument);
}

// A rebalance whose reselect comes back kept_current (the unconstrained
// selection is infeasible under the job's requirements and eligibility)
// must leave the job exactly where it runs — no release/re-allocate cycle,
// no migration counted.
TEST(SchedulerService, RebalanceHonoursKeptCurrent) {
  auto g = small_fabric(47);
  const auto hosts = computes(g);
  ASSERT_GE(hosts.size(), 8u);
  const int big = static_cast<int>(hosts.size() * 2 / 3);
  const int small = static_cast<int>(hosts.size()) - big;

  SchedulerConfig cfg;
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 2;
  SchedulerService sched(g, cfg);  // idle cluster: every host at cpu 1.0

  // Job A holds most of the fabric with a cpu requirement its *own* loaded
  // hosts no longer meet (1 / (1 + load) = 0.5 < 0.55): at rebalance time
  // every member is ineligible, and the freed remainder of the fabric is
  // too small to refill — reselect keeps the current placement.
  JobSpec a;
  a.nodes = big;
  a.duration = 1000.0;
  a.min_cpu_fraction = 0.55;
  a.load = 1.0;
  const std::uint64_t a_id = sched.submit(a, 0.0);

  JobSpec b;
  b.nodes = small;
  b.duration = 10.0;
  const std::uint64_t b_id = sched.submit(b, 1.0);

  sched.run_until(2.0);
  ASSERT_EQ(sched.job(a_id).state, JobState::Running);
  ASSERT_EQ(sched.job(b_id).state, JobState::Running);
  const std::vector<topo::NodeId> a_nodes = sched.job(a_id).nodes;

  sched.run_until(20.0);  // B departs; its release triggers the rebalance
  EXPECT_EQ(sched.job(b_id).state, JobState::Completed);
  const SchedulerStats st = sched.stats();
  EXPECT_GE(st.rebalance_attempts, 1u);
  EXPECT_EQ(st.rebalance_migrations, 0u);
  EXPECT_EQ(sched.job(a_id).migrations, 0);
  EXPECT_EQ(sched.job(a_id).nodes, a_nodes);
  EXPECT_EQ(sched.job(a_id).state, JobState::Running);
}

// Take a host out of the topology the way a live system does: its links
// first, then the (now degree-0) host, each announced to the snapshot.
void remove_host(topo::TopologyGraph& g, remos::NetworkSnapshot& snap,
                 topo::NodeId h) {
  const auto span = g.links_of(h);
  const std::vector<topo::LinkId> links(span.begin(), span.end());
  for (topo::LinkId l : links) {
    g.remove_link(l);
    snap.notify_link_removed(l);
  }
  g.remove_node(h);
  snap.notify_node_removed(h);
}

// A running job's host leaves the topology. Its release has no sensor to
// restore on the tombstoned host and link, but must still free the job's
// other hosts and restore their readings.
TEST(SchedulerService, ReleaseSkipsRemovedHostAndFreesTheRest) {
  auto g = small_fabric(53);
  SchedulerService sched(g);  // rebalancing off
  remos::NetworkSnapshot reference(g);

  JobSpec spec;
  spec.nodes = 4;
  spec.duration = 10.0;
  const std::uint64_t id = sched.submit(spec, 1.0);
  sched.run_until(2.0);
  ASSERT_EQ(sched.job(id).state, JobState::Running);
  const std::vector<topo::NodeId> held = sched.job(id).nodes;
  remove_host(g, sched.snapshot(), held.front());

  ASSERT_NO_THROW(sched.run_until(20.0));
  EXPECT_EQ(sched.job(id).state, JobState::Completed);
  EXPECT_EQ(sched.stats().running, 0u);
  for (std::size_t i = 1; i < held.size(); ++i) {
    EXPECT_EQ(sched.snapshot().cpu(held[i]), reference.cpu(held[i]));
    const topo::LinkId l = g.links_of(held[i]).front();
    EXPECT_EQ(sched.snapshot().bw(l), reference.bw(l));
  }

  // Every host still in the topology is free again.
  JobSpec all;
  all.nodes = static_cast<int>(computes(g).size());
  all.duration = 5.0;
  all.criterion = select::Criterion::MaxCompute;
  const std::uint64_t all_id = sched.submit(all, 21.0);
  sched.run_until(22.0);
  EXPECT_EQ(sched.job(all_id).state, JobState::Running);
}

// With rebalancing on, the post-release scan scores a placement with a
// removed member 0 (as api::reselect does), so that job is the worst and
// is moved off the tombstone.
TEST(SchedulerService, RebalanceScoresRemovedHostAsZero) {
  auto g = small_fabric(59);
  SchedulerConfig cfg;
  cfg.rebalance_on_release = true;
  cfg.rebalance_budget = 2;
  SchedulerService sched(g, cfg);
  remos::apply_synthetic_load(sched.snapshot(), 61);

  JobSpec long_job;
  long_job.nodes = 4;
  long_job.duration = 1000.0;
  JobSpec short_job;
  short_job.nodes = 4;
  short_job.duration = 10.0;
  const std::uint64_t a = sched.submit(long_job, 0.0);
  const std::uint64_t b = sched.submit(short_job, 1.0);
  sched.run_until(2.0);
  ASSERT_EQ(sched.job(a).state, JobState::Running);
  ASSERT_EQ(sched.job(b).state, JobState::Running);
  const topo::NodeId gone = sched.job(a).nodes.front();
  remove_host(g, sched.snapshot(), gone);

  ASSERT_NO_THROW(sched.run_until(20.0));  // b departs: release + scan
  EXPECT_EQ(sched.job(b).state, JobState::Completed);
  EXPECT_GE(sched.stats().rebalance_attempts, 1u);
  EXPECT_EQ(sched.job(a).state, JobState::Running);
  EXPECT_GE(sched.job(a).migrations, 1);
  EXPECT_EQ(std::count(sched.job(a).nodes.begin(), sched.job(a).nodes.end(),
                       gone),
            0);
  ASSERT_NO_THROW(sched.drain());
  EXPECT_EQ(sched.job(a).state, JobState::Completed);
}

// The rebalancer keeps each running job's score and rescores only the jobs
// the deltas since its last scan can have changed. check_score_cache makes
// the scheduler rescore every running job after every event and throw on
// any cached score that is not bit-identical. The external writes below
// reach every branch of the dirty rule: access-link and fabric-link
// bandwidth, load and memory, host and link removal, and (with a
// three-entry journal) a trimmed journal.
TEST(SchedulerService, ScoreCacheMatchesFullRescoreUnderChurn) {
  for (const std::size_t journal : {SchedulerConfig{}.journal_capacity,
                                    std::size_t{3}}) {
    SCOPED_TRACE("journal capacity " + std::to_string(journal));
    auto g = small_fabric(67);
    SchedulerConfig cfg;
    cfg.schedule_interval = 1.0;
    cfg.backfill_window = 6;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.journal_capacity = journal;
    cfg.check_score_cache = true;
    SchedulerService sched(g, cfg);
    remos::NetworkSnapshot& snap = sched.snapshot();
    remos::apply_synthetic_load(snap, 71);
    JobStream stream(pressured_workload(17));
    stream.feed(sched, 40);

    std::vector<topo::LinkId> fabric;
    for (std::size_t l = 0; l < g.link_count(); ++l) {
      const topo::Link& ln = g.link(static_cast<topo::LinkId>(l));
      if (!g.is_compute(ln.a) && !g.is_compute(ln.b))
        fabric.push_back(static_cast<topo::LinkId>(l));
    }
    ASSERT_GT(fabric.size(), 2u);
    util::Rng rng(73);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    int hosts_removed = 0;
    for (int step = 1; step <= 160; ++step) {
      const auto live = computes(g);
      const topo::NodeId h = live[pick(live.size())];
      snap.set_loadavg(h, rng.uniform(0.0, 3.0));
      const topo::LinkId access = g.links_of(live[pick(live.size())]).front();
      snap.set_bw(access, rng.uniform(0.1, 1.0) * snap.maxbw(access));
      if (step % 3 == 0) {
        const topo::LinkId l = fabric[pick(fabric.size())];
        if (!g.link_removed(l))
          snap.set_bw(l, rng.uniform(0.1, 1.0) * snap.maxbw(l));
      }
      if (step % 7 == 0) snap.set_free_memory(h, rng.uniform(1e8, 1e9));
      if (step % 40 == 0 && hosts_removed < 2) {
        // A host some running job holds, when there is one.
        topo::NodeId victim = live.front();
        for (const JobRecord& rec : sched.jobs())
          if (rec.state == JobState::Running)
            for (topo::NodeId n : rec.nodes)
              if (g.is_compute(n)) victim = n;
        remove_host(g, snap, victim);
        ++hosts_removed;
      }
      if (step == 100) {
        g.remove_link(fabric.front());
        snap.notify_link_removed(fabric.front());
      }
      ASSERT_NO_THROW(sched.run_until(0.5 * step)) << "step " << step;
    }
    ASSERT_NO_THROW(sched.drain());
    EXPECT_EQ(hosts_removed, 2);
    EXPECT_GT(sched.stats().rebalance_attempts, 0u);
    EXPECT_GT(sched.stats().rebalance_rescored, 0u);
  }
}

// Without external churn, allocate/release write only the placed hosts
// and their access links, so a scan rescores only the jobs those touched.
// A one-entry journal makes every scan rescore every job instead; both
// runs must decide the same.
TEST(SchedulerService, RescoresOnlyChangedJobs) {
  auto g = small_fabric(79);
  auto run_once = [&](std::size_t journal) {
    SchedulerConfig cfg;
    cfg.schedule_interval = 1.0;
    cfg.backfill_window = 6;
    cfg.rebalance_on_release = true;
    cfg.rebalance_budget = 1;
    cfg.journal_capacity = journal;
    SchedulerService sched(g, cfg);
    remos::apply_synthetic_load(sched.snapshot(), 83);
    JobStream stream(pressured_workload(19));
    stream.feed(sched, 60);
    sched.drain();
    return std::make_pair(sched.state_digest(), sched.stats());
  };
  const auto [digest, stats] = run_once(SchedulerConfig{}.journal_capacity);
  const auto [full_digest, full_stats] = run_once(1);
  EXPECT_EQ(digest, full_digest);
  ASSERT_GT(stats.rebalance_attempts, 0u);
  EXPECT_EQ(stats.rebalance_attempts, full_stats.rebalance_attempts);
  EXPECT_LT(stats.rebalance_rescored * 2, full_stats.rebalance_rescored);
}

TEST(JobStream, DeterministicAndShaped) {
  WorkloadConfig cfg;
  cfg.seed = 17;
  cfg.arrival_rate = 0.5;
  JobStream a(cfg);
  JobStream b(cfg);

  const std::set<std::string> tenants{"fft", "airshed", "mri"};
  double prev = 0.0;
  for (int i = 0; i < 50; ++i) {
    const JobStream::Arrival x = a.next();
    const JobStream::Arrival y = b.next();
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.spec.tenant, y.spec.tenant);
    EXPECT_EQ(x.spec.nodes, y.spec.nodes);
    EXPECT_EQ(x.spec.duration, y.spec.duration);
    EXPECT_GT(x.time, prev);  // strictly increasing arrival times
    prev = x.time;
    EXPECT_TRUE(tenants.count(x.spec.tenant)) << x.spec.tenant;
    EXPECT_GE(x.spec.nodes, 1);
  }

  // A different seed names a different trace.
  WorkloadConfig other = cfg;
  other.seed = 18;
  JobStream c(other);
  bool differs = false;
  JobStream fresh(cfg);
  for (int i = 0; i < 20 && !differs; ++i)
    differs = c.next().time != fresh.next().time;
  EXPECT_TRUE(differs);

  // node_scale grows template node counts (floor 1).
  WorkloadConfig scaled = cfg;
  scaled.node_scale = 2.0;
  JobStream s(scaled);
  int max_nodes = 0;
  for (int i = 0; i < 20; ++i) max_nodes = std::max(max_nodes, s.next().spec.nodes);
  EXPECT_GE(max_nodes, 8);  // fft's 4 nodes doubled
}

TEST(JobStream, ValidatesConfig) {
  WorkloadConfig bad_rate;
  bad_rate.arrival_rate = 0.0;
  EXPECT_THROW(JobStream{bad_rate}, std::invalid_argument);

  WorkloadConfig bad_weight;
  bad_weight.mix = paper_mix();
  bad_weight.mix[0].weight = -1.0;
  EXPECT_THROW(JobStream{bad_weight}, std::invalid_argument);

  WorkloadConfig zero_weight;
  zero_weight.mix = paper_mix();
  for (JobTemplate& t : zero_weight.mix) t.weight = 0.0;
  EXPECT_THROW(JobStream{zero_weight}, std::invalid_argument);
}

}  // namespace
}  // namespace netsel::sched
