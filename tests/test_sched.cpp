// Tests for src/sched: assigners, the FCFS+EASY scheduler, fault
// injection, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "arch/system_catalog.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "sched/assigners.hpp"
#include "sched/checkpoint.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/event_queue.hpp"
#include "sched/faults.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {
namespace {

using arch::SystemId;

Job make_job(int id, double q, double r, double l, double c, int nodes = 1,
             bool gpu = false) {
  Job job;
  job.id = id;
  job.app = "TestApp";
  job.gpu_capable = gpu;
  job.nodes_required = nodes;
  job.runtime = {q, r, l, c};
  job.predicted = core::Rpv::relative_to(job.runtime, SystemId::kQuartz);
  return job;
}

std::vector<Machine> tiny_cluster(int q = 2, int r = 2, int l = 2, int c = 2) {
  return {{SystemId::kQuartz, q},
          {SystemId::kRuby, r},
          {SystemId::kLassen, l},
          {SystemId::kCorona, c}};
}

// ---------------------------------------------------------------- cluster ----

TEST(Machine, DefaultClusterMatchesSystemCatalog) {
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  ASSERT_EQ(machines.size(), 4u);
  for (const auto& m : machines) {
    EXPECT_EQ(m.total_nodes, catalog.get(m.id).nodes);
  }
}

TEST(ClusterView, ReportsOccupancy) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 0, 1, 2};
  const ClusterView view(machines, free);
  EXPECT_EQ(view.free_nodes(SystemId::kQuartz), 2);
  EXPECT_TRUE(view.is_full(SystemId::kRuby, 1));
  EXPECT_FALSE(view.is_full(SystemId::kLassen, 1));
  EXPECT_TRUE(view.is_full(SystemId::kLassen, 2));
  EXPECT_EQ(view.total_nodes(SystemId::kCorona), 2);
}

// --------------------------------------------------------------- assigners ----

TEST(RoundRobinAssigner, CyclesThroughMachines) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  RoundRobinAssigner assigner;
  const Job job = make_job(0, 1, 1, 1, 1);
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.assign(job, 1, view), SystemId::kRuby);
  EXPECT_EQ(assigner.assign(job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(job, 3, view), SystemId::kCorona);
  EXPECT_EQ(assigner.assign(job, 4, view), SystemId::kQuartz);
}

/// A lane's startable width: the widest over the machines.
int lane_width(const MachineAssigner& assigner, std::size_t started_index,
               const ClusterView& view, std::size_t lane) {
  int widest = 0;
  for (const Machine& m : view.machines()) {
    widest = std::max(widest, assigner.startable_width(started_index, view, lane, m.id));
  }
  return widest;
}

TEST(RoundRobinAssigner, StartableWidthIsTargetMachineFreeNodes) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  std::array<int, 4> free = {0, 5, 2, 7};
  const ClusterView view(machines, free);
  const RoundRobinAssigner assigner;
  EXPECT_EQ(lane_width(assigner, 0, view, 0), 0);  // quartz is full
  EXPECT_EQ(lane_width(assigner, 1, view, 0), 5);
  EXPECT_EQ(lane_width(assigner, 2, view, 0), 2);
  EXPECT_EQ(lane_width(assigner, 3, view, 0), 7);
  EXPECT_EQ(lane_width(assigner, 4, view, 0), 0);
  EXPECT_EQ(lane_width(assigner, 1, view, 1), 5);  // the lane is ignored
  // Only the target machine takes a job: every other machine reads 0.
  EXPECT_EQ(assigner.startable_width(1, view, 0, SystemId::kRuby), 5);
  EXPECT_EQ(assigner.startable_width(1, view, 0, SystemId::kCorona), 0);
  EXPECT_EQ(assigner.startable_width(3, view, 0, SystemId::kCorona), 7);
  EXPECT_EQ(assigner.startable_width(3, view, 0, SystemId::kRuby), 0);
}

TEST(MachineAssigner, DefaultStartableWidthIsWidestFreePool) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  std::array<int, 4> free = {0, 5, 2, 7};
  const ClusterView view(machines, free);
  const ModelBasedAssigner assigner;
  EXPECT_EQ(lane_width(assigner, 0, view, 0), 7);
  EXPECT_EQ(lane_width(assigner, 3, view, 0), 7);
  EXPECT_EQ(lane_width(assigner, 3, view, 1), 7);
  // Per machine, the default is that machine's free nodes.
  EXPECT_EQ(assigner.startable_width(0, view, 0, SystemId::kQuartz), 0);
  EXPECT_EQ(assigner.startable_width(0, view, 0, SystemId::kLassen), 2);
  EXPECT_EQ(assigner.startable_width(5, view, 1, SystemId::kRuby), 5);
  free = {0, 0, 0, 0};
  EXPECT_EQ(lane_width(assigner, 1, view, 0), 0);
}

TEST(MachineAssigner, DefaultHooksKeepOneLaneAndCannotSkip) {
  ModelBasedAssigner assigner;
  EXPECT_EQ(assigner.lane(make_job(0, 1, 1, 1, 1, 1, /*gpu=*/true)), 0u);
  EXPECT_FALSE(assigner.skip_rejected(LaneCounts{}));
  EXPECT_FALSE(assigner.skip_rejected(LaneCounts{3, 4}));
}

TEST(RandomAssigner, SkipRejectedDiscardsOneDrawPerCall) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {0, 0, 0, 0};
  const ClusterView view(machines, free);
  RandomAssigner skipped(13);
  RandomAssigner called(13);
  const Job job = make_job(0, 1, 1, 1, 1, 1, /*gpu=*/true);
  EXPECT_EQ(skipped.lane(job), 0u);
  EXPECT_TRUE(skipped.skip_rejected(LaneCounts{}));
  EXPECT_TRUE(skipped.skip_rejected(LaneCounts{37, 0}));
  for (int i = 0; i < 37; ++i) (void)called.assign(job, 0, view);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(skipped.assign(job, 0, view), called.assign(job, 0, view)) << i;
  }
}

TEST(UserRoundRobinAssigner, LanesBoundAndSkipPerDeviceClass) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  std::array<int, 4> free = {1, 3, 0, 2};
  const ClusterView view(machines, free);
  const Job gpu_job = make_job(0, 1, 1, 1, 1, 1, /*gpu=*/true);
  const Job cpu_job = make_job(1, 1, 1, 1, 1, 1, /*gpu=*/false);
  UserRoundRobinAssigner skipped;
  EXPECT_EQ(skipped.lane(cpu_job), UserRoundRobinAssigner::kCpuLane);
  EXPECT_EQ(skipped.lane(gpu_job), UserRoundRobinAssigner::kGpuLane);
  // Quartz/Ruby for the CPU lane, Lassen/Corona for the GPU lane.
  EXPECT_EQ(lane_width(skipped, 0, view, UserRoundRobinAssigner::kCpuLane), 3);
  EXPECT_EQ(lane_width(skipped, 0, view, UserRoundRobinAssigner::kGpuLane), 2);
  EXPECT_EQ(skipped.startable_width(0, view, UserRoundRobinAssigner::kCpuLane,
                                    SystemId::kQuartz),
            1);
  EXPECT_EQ(skipped.startable_width(0, view, UserRoundRobinAssigner::kCpuLane,
                                    SystemId::kCorona),
            0);
  EXPECT_EQ(skipped.startable_width(0, view, UserRoundRobinAssigner::kGpuLane,
                                    SystemId::kCorona),
            2);
  EXPECT_EQ(skipped.startable_width(0, view, UserRoundRobinAssigner::kGpuLane,
                                    SystemId::kRuby),
            0);
  // Three CPU calls and one GPU call, replayed from counts.
  LaneCounts rejected{};
  rejected[UserRoundRobinAssigner::kCpuLane] = 3;
  rejected[UserRoundRobinAssigner::kGpuLane] = 1;
  EXPECT_TRUE(skipped.skip_rejected(rejected));
  EXPECT_EQ(skipped.assign(cpu_job, 0, view), SystemId::kRuby);
  EXPECT_EQ(skipped.assign(gpu_job, 0, view), SystemId::kCorona);
  EXPECT_EQ(skipped.assign(cpu_job, 0, view), SystemId::kQuartz);
}

TEST(RandomAssigner, CoversAllMachinesDeterministically) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  RandomAssigner a(7);
  RandomAssigner b(7);
  std::array<int, 4> hits{};
  const Job job = make_job(0, 1, 1, 1, 1);
  for (int i = 0; i < 400; ++i) {
    const SystemId ma = a.assign(job, 0, view);
    EXPECT_EQ(ma, b.assign(job, 0, view));  // same seed, same stream
    hits[static_cast<std::size_t>(ma)]++;
  }
  for (const int h : hits) EXPECT_GT(h, 50);
}

TEST(UserRoundRobinAssigner, SeparatesGpuAndCpuJobs) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  UserRoundRobinAssigner assigner;
  const Job gpu_job = make_job(0, 1, 1, 1, 1, 1, /*gpu=*/true);
  const Job cpu_job = make_job(1, 1, 1, 1, 1, 1, /*gpu=*/false);
  EXPECT_EQ(assigner.assign(gpu_job, 0, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(gpu_job, 1, view), SystemId::kCorona);
  EXPECT_EQ(assigner.assign(gpu_job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(cpu_job, 3, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.assign(cpu_job, 4, view), SystemId::kRuby);
}

TEST(ModelBasedAssigner, PicksPredictedFastest) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);  // lassen fastest
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kLassen);
}

TEST(ModelBasedAssigner, FallsBackWhenFull) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 0, 2};  // lassen full
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);  // lassen > ruby > corona > quartz
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kRuby);
}

TEST(ModelBasedAssigner, AllFullReturnsFastest) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {0, 0, 0, 0};
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kLassen);
}

TEST(OracleAssigner, UsesTrueRuntimes) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  OracleAssigner assigner;
  Job job = make_job(0, 1.0, 5.0, 2.0, 8.0);
  // Mislead the prediction; the oracle must ignore it.
  job.predicted = core::Rpv({5.0, 0.1, 2.0, 3.0});
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kQuartz);
}

// --------------------------------------------------------------- scheduler ----

TEST(EasyScheduler, SingleJobRunsImmediately) {
  const auto machines = tiny_cluster();
  RoundRobinAssigner assigner;
  const std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.makespan_s, 10.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 0.0);
  EXPECT_EQ(result.outcomes[0].machine, SystemId::kQuartz);
}

TEST(EasyScheduler, SerializesWhenMachineSaturated) {
  // One machine with one node; all jobs forced onto quartz.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 1},
                                         {SystemId::kRuby, 1},
                                         {SystemId::kLassen, 1},
                                         {SystemId::kCorona, 1}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  const std::vector<Job> jobs = {make_job(0, 5, 5, 5, 5), make_job(1, 7, 7, 7, 7),
                                 make_job(2, 3, 3, 3, 3)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.makespan_s, 15.0);  // 5 + 7 + 3 in order
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 5.0);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 12.0);
}

TEST(EasyScheduler, BackfillsShortJobBehindBlockedHead) {
  // quartz has 2 nodes. Job0 (2 nodes, runs 10) occupies it. Job1 needs 2
  // nodes -> blocked, reserved at t=10. Job2 (1 node, runs 5) fits in the
  // spare-free window? No free nodes -> cannot. Instead: Job0 uses 1 node,
  // leaving 1 free; Job1 needs 2 (blocked); Job2 needs 1 and runs 5 <= 10.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 2},
                                         {SystemId::kRuby, 2},
                                         {SystemId::kLassen, 2},
                                         {SystemId::kCorona, 2}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10, 1),
                           make_job(1, 4, 4, 4, 4, 2),
                           make_job(2, 5, 5, 5, 5, 1)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 0.0);
  // Head job 1 is blocked until job 0 finishes at t=10.
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 10.0);
  // Job 2 backfills at t=0 (ends at 5 <= shadow time 10, fits in 1 node).
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 0.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 14.0);
}

TEST(EasyScheduler, BackfillDoesNotDelayReservation) {
  // Same setup, but the backfill candidate runs 20 s: starting it would
  // push job 1 past its reservation, so it must NOT backfill.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 2},
                                         {SystemId::kRuby, 2},
                                         {SystemId::kLassen, 2},
                                         {SystemId::kCorona, 2}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10, 1),
                           make_job(1, 4, 4, 4, 4, 2),
                           make_job(2, 20, 20, 20, 20, 1)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 10.0);
  EXPECT_GE(result.outcomes[2].start_s, 10.0);  // had to wait
}

TEST(EasyScheduler, CrossMachineBackfillAllowed) {
  // Head blocked on quartz; a later job assigned to ruby starts right away.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 1},
                                         {SystemId::kRuby, 1},
                                         {SystemId::kLassen, 1},
                                         {SystemId::kCorona, 1}};
  class Alternate final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job& job, std::size_t, const ClusterView&) override {
      return job.id == 2 ? SystemId::kRuby : SystemId::kQuartz;
    }
    std::string name() const override { return "alternate"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10), make_job(1, 4, 4, 4, 4),
                           make_job(2, 6, 6, 6, 6)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 0.0);
  EXPECT_EQ(result.outcomes[2].machine, SystemId::kRuby);
}

TEST(EasyScheduler, AllJobsComplete) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  RoundRobinAssigner assigner;
  std::vector<Job> jobs;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.bernoulli(0.3) ? 2 : 1));
  }
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_EQ(result.outcomes.size(), jobs.size());
  for (const auto& o : result.outcomes) {
    EXPECT_GE(o.start_s, 0.0);
    EXPECT_GT(o.end_s, o.start_s);
  }
  EXPECT_GT(result.makespan_s, 0.0);
}

TEST(EasyScheduler, NodeCapacityNeverExceeded) {
  const auto machines = tiny_cluster(2, 2, 2, 2);
  RoundRobinAssigner assigner;
  std::vector<Job> jobs;
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 10), rng.uniform(1, 10),
                            rng.uniform(1, 10), rng.uniform(1, 10),
                            rng.bernoulli(0.4) ? 2 : 1));
  }
  const auto result = simulate(jobs, machines, assigner);
  // Sweep events per machine and verify concurrent node usage <= capacity.
  for (const auto& machine : machines) {
    std::vector<std::pair<double, int>> events;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (result.outcomes[j].machine != machine.id) continue;
      events.emplace_back(result.outcomes[j].start_s, jobs[j].nodes_required);
      events.emplace_back(result.outcomes[j].end_s, -jobs[j].nodes_required);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                // Releases before acquisitions at the same instant.
                return a.first != b.first ? a.first < b.first : a.second < b.second;
              });
    int in_use = 0;
    for (const auto& [t, delta] : events) {
      in_use += delta;
      EXPECT_LE(in_use, machine.total_nodes);
      EXPECT_GE(in_use, 0);
    }
  }
}

TEST(EasyScheduler, Deterministic) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 9), rng.uniform(1, 9),
                            rng.uniform(1, 9), rng.uniform(1, 9)));
  }
  RandomAssigner a1(3);
  RandomAssigner a2(3);
  const auto r1 = simulate(jobs, machines, a1);
  const auto r2 = simulate(jobs, machines, a2);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.avg_bounded_slowdown, r2.avg_bounded_slowdown);
}

TEST(EasyScheduler, OracleBeatsWorstCasePlacement) {
  // Jobs are 10x faster on lassen; an informed assigner must beat one that
  // always picks quartz.
  const auto machines = tiny_cluster(2, 2, 2, 2);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back(make_job(i, 20, 18, 2, 16));
  OracleAssigner oracle;
  const auto fast = simulate(jobs, machines, oracle);
  RoundRobinAssigner rr;
  const auto slow = simulate(jobs, machines, rr);
  EXPECT_LT(fast.makespan_s, slow.makespan_s);
}

TEST(BoundedSlowdown, ComputesBoundedRatio) {
  std::vector<JobOutcome> outcomes;
  // wait 10, run 10 -> slowdown 2.
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 2.0);
  // Very short job: bound by tau=10 -> (90 + 1)/10 = 9.1.
  outcomes.clear();
  outcomes.push_back({SystemId::kQuartz, 90.0, 91.0});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 9.1);
}

TEST(BoundedSlowdown, NeverBelowOne) {
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 0.0, 1.0});  // no wait, short run
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 1.0);
}

TEST(BoundedSlowdown, RejectsBadTau) {
  EXPECT_THROW(average_bounded_slowdown({}, 0.0), mphpc::ContractViolation);
}

TEST(BoundedSlowdown, EmptyAndAllAbandonedReturnZero) {
  EXPECT_DOUBLE_EQ(average_bounded_slowdown({}), 0.0);
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0, 0.0, 4, /*abandoned=*/true});
  outcomes.push_back({SystemId::kRuby, 5.0, 6.0, 0.0, 4, /*abandoned=*/true});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 0.0);
}

TEST(BoundedSlowdown, SkipsAbandonedOutcomes) {
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0});  // slowdown 2
  outcomes.push_back({SystemId::kRuby, 500.0, 501.0, 0.0, 4, /*abandoned=*/true});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 2.0);
}

// ------------------------------------------------------------ guarded RPV ----

TEST(GuardedModelBasedAssigner, FollowsModelWhenPlausible) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  GuardedModelBasedAssigner guarded;
  ModelBasedAssigner plain;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(guarded.assign(job, 0, view), plain.assign(job, 0, view));
  EXPECT_EQ(guarded.fallbacks(), 0);
}

TEST(GuardedModelBasedAssigner, FallsBackOnImplausiblePredictions) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  GuardedModelBasedAssigner assigner;

  Job nan_job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  nan_job.predicted =
      core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
  // CPU-only job: the user-preference fallback starts at quartz.
  EXPECT_EQ(assigner.assign(nan_job, 0, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.fallbacks(), 1);

  Job negative_job = make_job(1, 10.0, 5.0, 2.0, 8.0);
  negative_job.predicted = core::Rpv({1.0, -0.5, 1.0, 1.0});
  EXPECT_EQ(assigner.assign(negative_job, 1, view), SystemId::kRuby);
  EXPECT_EQ(assigner.fallbacks(), 2);

  Job huge_job = make_job(2, 10.0, 5.0, 2.0, 8.0, 1, /*gpu=*/true);
  huge_job.predicted = core::Rpv({1.0, 1.0, 1e9, 1.0});  // above max_ratio
  EXPECT_EQ(assigner.assign(huge_job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.fallbacks(), 3);

  // A plausible job afterwards goes back through the model path.
  const Job good_job = make_job(3, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(assigner.assign(good_job, 3, view), SystemId::kLassen);
  EXPECT_EQ(assigner.fallbacks(), 3);
}

// ------------------------------------------ assigner order memoization ----

void expect_results_identical(const SimulationResult& a, const SimulationResult& b);

// Re-keys a workload with ids far sparser than the job count, which keeps
// the JobOrderCache disabled (see assigners.hpp): the same jobs then take
// the compute-per-call path. Fault-free scheduling is otherwise
// id-independent, so memoized and unmemoized runs must agree exactly.
std::vector<Job> with_sparse_ids(std::vector<Job> jobs) {
  for (auto& job : jobs) job.id = job.id * 1'000'000 + 17;
  return jobs;
}

TEST(ModelBasedAssigner, PrimedAssignMatchesUnprimed) {
  const auto machines = tiny_cluster();
  std::vector<Job> jobs;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 9), rng.uniform(1, 9),
                            rng.uniform(1, 9), rng.uniform(1, 9)));
  }
  ModelBasedAssigner primed;
  primed.prime(jobs);
  ModelBasedAssigner fresh;
  const std::array<std::array<int, 4>, 4> patterns = {
      {{2, 2, 2, 2}, {0, 2, 2, 2}, {2, 0, 0, 2}, {0, 0, 0, 0}}};
  for (const auto& free_nodes : patterns) {
    auto free = free_nodes;
    const ClusterView view(machines, free);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(primed.assign(jobs[i], i, view), fresh.assign(jobs[i], i, view));
    }
  }
}

TEST(ModelBasedAssigner, MemoizedSimulationGolden) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(32);
  for (int i = 0; i < 200; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.bernoulli(0.3) ? 2 : 1));
  }
  ModelBasedAssigner memoized;
  ModelBasedAssigner per_call;
  const auto a = simulate(jobs, machines, memoized);
  const auto b = simulate(with_sparse_ids(jobs), machines, per_call);
  expect_results_identical(a, b);
}

TEST(GuardedModelBasedAssigner, MemoizedSimulationGoldenWithFallbacks) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(33);
  for (int i = 0; i < 150; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.uniform(1, 20), rng.uniform(1, 20), 1,
                            rng.bernoulli(0.4)));
    if (i % 3 == 0) {
      // Poisoned prediction: must take the (stateful) fallback path, whose
      // round-robin counters have to advance identically with and without
      // the memoized plausibility verdict.
      jobs.back().predicted = core::Rpv({1.0, 1e9, 1.0, 1.0});
    }
  }
  GuardedModelBasedAssigner memoized;
  GuardedModelBasedAssigner per_call;
  const auto a = simulate(jobs, machines, memoized);
  const auto b = simulate(with_sparse_ids(jobs), machines, per_call);
  expect_results_identical(a, b);
  EXPECT_GT(memoized.fallbacks(), 0);
  EXPECT_EQ(memoized.fallbacks(), per_call.fallbacks());
}

// ------------------------------------------------------------ fault traces ----

TEST(FaultModel, GenerateIsDeterministicPerSeed) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const RetryPolicy retry;
  const auto model_a = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 42);
  const auto model_b = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 42);
  const auto model_c = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 43);
  const auto a = model_a.generate(machines, 50'000.0);
  const auto b = model_b.generate(machines, 50'000.0);
  const auto c = model_c.generate(machines, 50'000.0);

  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].machine, b.events[i].machine);
    EXPECT_EQ(a.events[i].delta, b.events[i].delta);
  }
  // A different seed must produce a different trace.
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].time_s != c.events[i].time_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultModel, TraceIsWellFormed) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto model = FaultModel::uniform(1800.0, 900.0, 0.0, {}, 9);
  const auto trace = model.generate(machines, 40'000.0);
  ASSERT_GT(trace.events.size(), 0u);
  EXPECT_EQ(trace.events.size() % 2, 0u);  // downs pair with ups

  std::array<int, arch::kNumSystems> down{};
  double last_t = 0.0;
  for (const NodeEvent& e : trace.events) {
    EXPECT_GE(e.time_s, last_t);  // sorted
    last_t = e.time_s;
    auto& d = down[static_cast<std::size_t>(e.machine)];
    d -= e.delta;
    EXPECT_GE(d, 0);  // never repair a node that is not down
    EXPECT_LE(d, 3);  // never exceed the machine's inventory
  }
  for (const int d : down) EXPECT_EQ(d, 0);  // every down has its up
}

TEST(FaultModel, DisabledModelGeneratesEmptyTrace) {
  const auto machines = tiny_cluster();
  EXPECT_FALSE(FaultModel::none().enabled());
  const auto trace = FaultModel::none().generate(machines, 1e6);
  EXPECT_FALSE(trace.enabled());
  EXPECT_TRUE(trace.events.empty());
}

// -------------------------------------------------------- faulty scheduling ----

/// Field-by-field equality of two simulation results (bit-identical
/// doubles; == is exact).
void expect_results_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_bounded_slowdown, b.avg_bounded_slowdown);
  EXPECT_EQ(a.avg_wait_s, b.avg_wait_s);
  EXPECT_EQ(a.node_seconds, b.node_seconds);
  EXPECT_EQ(a.lost_node_seconds, b.lost_node_seconds);
  EXPECT_EQ(a.downtime_node_seconds, b.downtime_node_seconds);
  EXPECT_EQ(a.checkpoint_overhead_node_seconds, b.checkpoint_overhead_node_seconds);
  EXPECT_EQ(a.recovered_node_seconds, b.recovered_node_seconds);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.jobs_killed, b.jobs_killed);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.abandoned_jobs, b.abandoned_jobs);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t j = 0; j < a.outcomes.size(); ++j) {
    EXPECT_EQ(a.outcomes[j].machine, b.outcomes[j].machine);
    EXPECT_EQ(a.outcomes[j].start_s, b.outcomes[j].start_s);
    EXPECT_EQ(a.outcomes[j].end_s, b.outcomes[j].end_s);
    EXPECT_EQ(a.outcomes[j].attempts, b.outcomes[j].attempts);
    EXPECT_EQ(a.outcomes[j].abandoned, b.outcomes[j].abandoned);
  }
}

std::vector<Job> random_workload(int n, std::uint64_t seed) {
  std::vector<Job> jobs;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.bernoulli(0.3) ? 2 : 1, rng.bernoulli(0.4)));
  }
  return jobs;
}

TEST(FaultyScheduler, NoneTraceReproducesFaultFreeRunBitIdentically) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(150, 21);
  RandomAssigner a1(3);
  RandomAssigner a2(3);
  const auto fault_free = simulate(jobs, machines, a1);
  const auto with_none = simulate(jobs, machines, a2, FaultTrace::none());
  expect_results_identical(fault_free, with_none);
  EXPECT_EQ(with_none.jobs_killed, 0);
  EXPECT_EQ(with_none.total_retries, 0);
  EXPECT_EQ(with_none.completed_jobs, jobs.size());
  EXPECT_EQ(with_none.abandoned_jobs, 0u);
}

TEST(FaultyScheduler, NodeFailureKillsAndReschedulesJob) {
  // quartz has 2 nodes; one 2-node job runs [0, 100). A node goes down at
  // t=10 (no idle node -> the job is killed) and is repaired at t=50.
  // With base delay 5 and no jitter the retry is queued at t=15, but the
  // machine cannot fit 2 nodes until the repair, so attempt 2 runs
  // [50, 150).
  const auto machines = tiny_cluster();
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1}, {50.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100, /*nodes=*/2)};
  const auto result = simulate(jobs, machines, assigner, trace);

  EXPECT_EQ(result.jobs_killed, 1);
  EXPECT_EQ(result.total_retries, 1);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_EQ(result.abandoned_jobs, 0u);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_FALSE(result.outcomes[0].abandoned);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 150.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 150.0);
  const auto q = static_cast<std::size_t>(SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(result.lost_node_seconds[q], 20.0);      // 2 nodes x 10 s
  EXPECT_DOUBLE_EQ(result.downtime_node_seconds[q], 40.0);  // 1 node, [10, 50)
  EXPECT_DOUBLE_EQ(result.node_seconds[q], 200.0);          // 2 nodes x 100 s
}

TEST(FaultyScheduler, CertainKillsAbandonEveryJob) {
  const auto machines = tiny_cluster();
  RoundRobinAssigner assigner;
  const auto jobs = random_workload(20, 33);

  FaultTrace trace;
  trace.kill_probability = 1.0;  // every attempt dies mid-run
  trace.retry.max_attempts = 3;
  trace.seed = 5;

  const auto result = simulate(jobs, machines, assigner, trace);
  EXPECT_EQ(result.completed_jobs, 0u);
  EXPECT_EQ(result.abandoned_jobs, jobs.size());
  EXPECT_EQ(result.jobs_killed, static_cast<long long>(jobs.size()) * 3);
  EXPECT_EQ(result.total_retries, static_cast<long long>(jobs.size()) * 2);
  EXPECT_DOUBLE_EQ(result.avg_bounded_slowdown, 0.0);
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_TRUE(o.abandoned);
    EXPECT_EQ(o.attempts, 3);
    EXPECT_GE(o.end_s, o.start_s);
  }
}

TEST(FaultyScheduler, NodeSecondsReconcile) {
  // Committed + lost + downtime + idle node-seconds must equal
  // makespan x capacity on every machine, with idle >= 0.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  RoundRobinAssigner assigner;
  const auto result = simulate(jobs, machines, assigner, trace);
  EXPECT_GT(result.jobs_killed, 0);

  for (const Machine& machine : machines) {
    const auto k = static_cast<std::size_t>(machine.id);
    const double capacity = result.makespan_s * machine.total_nodes;
    const double used = result.node_seconds[k] + result.lost_node_seconds[k] +
                        result.downtime_node_seconds[k];
    EXPECT_GE(result.node_seconds[k], 0.0);
    EXPECT_GE(result.lost_node_seconds[k], 0.0);
    EXPECT_GE(result.downtime_node_seconds[k], 0.0);
    EXPECT_LE(used, capacity + 1e-6);  // idle = capacity - used >= 0
  }
}

TEST(FaultyScheduler, EveryKilledJobIsRescheduledOrAbandoned) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(150, 12);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay_s = 2.0;
  const auto model = FaultModel::uniform(1500.0, 400.0, 0.2, retry, 99);
  const auto trace = model.generate(machines, 100'000.0);
  RoundRobinAssigner assigner;
  const auto result = simulate(jobs, machines, assigner, trace);

  EXPECT_GT(result.jobs_killed, 0);
  EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, jobs.size());
  long long extra_attempts = 0;
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_GE(o.attempts, 1);
    EXPECT_LE(o.attempts, retry.max_attempts);
    if (o.abandoned) {
      EXPECT_EQ(o.attempts, retry.max_attempts);
    }
    extra_attempts += o.attempts - 1;
  }
  // Each retry is exactly one extra attempt by some job.
  EXPECT_EQ(result.total_retries, extra_attempts);
}

TEST(FaultyScheduler, DeterministicAcrossThreadConfigs) {
  // The simulation must be bit-identical no matter how many pool threads
  // exist or how many simulations run concurrently (exercised under TSan).
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(120, 4);
  const auto model = FaultModel::uniform(2500.0, 500.0, 0.1, {}, 31);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner reference_assigner;
  const auto reference = simulate(jobs, machines, reference_assigner, trace);
  EXPECT_GT(reference.jobs_killed, 0);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<SimulationResult> results(threads);
    pool.parallel_for(0, threads, [&](std::size_t i) {
      RoundRobinAssigner assigner;
      results[i] = simulate(jobs, machines, assigner, trace);
    });
    for (const auto& result : results) {
      expect_results_identical(reference, result);
    }
  }
}

// ------------------------------------------------------ checkpoint/restart ----

TEST(CheckpointPolicy, DisabledPolicyIsPassThrough) {
  const CheckpointPolicy off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.checkpoints_during(1e6), 0);
  // Bit-identical, not just approximately equal: the disabled policy must
  // not perturb the restart-from-zero arithmetic.
  EXPECT_EQ(off.attempt_duration(123.456), 123.456);
  const auto account = off.account_kill(50.0, 100.0);
  EXPECT_EQ(account.saved_work_s, 0.0);
  EXPECT_EQ(account.lost_work_s, 50.0);
  EXPECT_EQ(account.overhead_paid_s, 0.0);
  EXPECT_EQ(account.checkpoints, 0);
}

TEST(CheckpointPolicy, CountsWritesStrictlyBeforeCompletion) {
  const CheckpointPolicy policy{30.0, 5.0};
  ASSERT_TRUE(policy.enabled());
  EXPECT_EQ(policy.checkpoints_during(100.0), 3);  // at work 30, 60, 90
  EXPECT_EQ(policy.checkpoints_during(90.0), 2);   // none at completion
  EXPECT_EQ(policy.checkpoints_during(30.0), 0);
  EXPECT_EQ(policy.checkpoints_during(30.5), 1);
  EXPECT_DOUBLE_EQ(policy.attempt_duration(100.0), 115.0);  // 100 + 3 x 5
  EXPECT_DOUBLE_EQ(policy.attempt_duration(90.0), 100.0);   // 90 + 2 x 5
}

TEST(CheckpointPolicy, KillAccountingSplitsElapsedExactly) {
  const CheckpointPolicy policy{30.0, 5.0};  // cycle = 35 wall seconds
  // Killed at wall 50 of a 100 s-work attempt: checkpoint 1 completed at
  // wall 35, then 15 s into the second interval.
  auto account = policy.account_kill(50.0, 100.0);
  EXPECT_EQ(account.checkpoints, 1);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 30.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 5.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 15.0);

  // Killed mid-write at wall 33: the interval being written is not yet
  // durable (lost), the partial write counts as overhead.
  account = policy.account_kill(33.0, 100.0);
  EXPECT_EQ(account.checkpoints, 0);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 0.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 30.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 3.0);

  // Killed past the last write (wall 110 of a 115 s attempt): only the
  // final uncheckpointed stretch is lost.
  account = policy.account_kill(110.0, 100.0);
  EXPECT_EQ(account.checkpoints, 3);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 90.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 15.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 5.0);

  // Invariants: the split always reconciles and a kill never loses more
  // than one interval of work.
  for (const double elapsed : {0.0, 10.0, 30.0, 34.9, 35.0, 69.0, 100.0, 114.0}) {
    const auto a = policy.account_kill(elapsed, 100.0);
    EXPECT_DOUBLE_EQ(a.saved_work_s + a.lost_work_s + a.overhead_paid_s, elapsed);
    EXPECT_LE(a.lost_work_s, policy.interval_s);
  }
}

TEST(CheckpointPolicy, YoungDalyInterval) {
  EXPECT_DOUBLE_EQ(young_daly_interval(50.0, 100.0), 100.0);  // sqrt(2*50*100)
  EXPECT_DOUBLE_EQ(young_daly_interval(60.0, 30.0 * 24.0 * 3600.0),
                   std::sqrt(2.0 * 60.0 * 30.0 * 24.0 * 3600.0));
  EXPECT_THROW(young_daly_interval(0.0, 100.0), mphpc::ContractViolation);
  EXPECT_THROW(young_daly_interval(10.0, 0.0), mphpc::ContractViolation);
}

TEST(CheckpointPolicy, TraceNodeMtbfCountsFailuresInHorizon) {
  const auto machines = tiny_cluster(2, 2, 2, 2);  // 8 nodes
  FaultTrace trace;
  trace.events = {{100.0, SystemId::kQuartz, -1}, {200.0, SystemId::kQuartz, +1},
                  {300.0, SystemId::kRuby, -1},   {400.0, SystemId::kRuby, +1},
                  {500.0, SystemId::kLassen, -1}, {600.0, SystemId::kLassen, +1},
                  {700.0, SystemId::kCorona, -1}, {800.0, SystemId::kCorona, +1},
                  {1500.0, SystemId::kQuartz, -1}};  // outside the horizon
  // 4 failures in [0, 1000) over 8 node-kiloseconds -> MTBF 2000 s.
  EXPECT_DOUBLE_EQ(trace_node_mtbf_s(trace, machines, 1000.0), 2000.0);
  // No failures in a tiny horizon -> infinite MTBF.
  EXPECT_TRUE(std::isinf(trace_node_mtbf_s(trace, machines, 50.0)));
}

TEST(CheckpointedScheduler, KillResumesFromLastCheckpoint) {
  // Mirror of NodeFailureKillsAndReschedulesJob with a {4 s, 1 s} policy.
  // Attempt 1 does 100 s of work -> 24 writes -> 124 s wall; the kill at
  // wall 10 lands exactly after write 2 (cycle 5), so 8 s of work is
  // durable. Attempt 2 resumes with 92 s remaining (22 writes, 114 s wall)
  // at the t=50 repair and ends at 164.
  const auto machines = tiny_cluster();
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1}, {50.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  SchedulerOptions options;
  options.checkpoint = {4.0, 1.0};
  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100, /*nodes=*/2)};
  const auto result = simulate(jobs, machines, assigner, trace, options);

  EXPECT_EQ(result.jobs_killed, 1);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 164.0);
  const auto q = static_cast<std::size_t>(SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(result.node_seconds[q], 184.0);       // 92 s work x 2 nodes
  EXPECT_DOUBLE_EQ(result.recovered_node_seconds[q], 16.0);  // 8 s x 2 nodes
  EXPECT_DOUBLE_EQ(result.lost_node_seconds[q], 0.0);    // kill right at a write
  // Kill: 2 writes paid; completion: 22 writes -> (2 + 22) x 1 s x 2 nodes.
  EXPECT_DOUBLE_EQ(result.checkpoint_overhead_node_seconds[q], 48.0);
  EXPECT_EQ(result.checkpoints_written, 24);
  EXPECT_DOUBLE_EQ(result.downtime_node_seconds[q], 40.0);
}

TEST(CheckpointedScheduler, NodeSecondsReconcileWithCheckpointing) {
  // committed + lost + recovered + overhead + downtime + idle == capacity
  // per machine, and each kill loses at most one interval of work.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  RoundRobinAssigner assigner;
  SchedulerOptions options;
  options.checkpoint = {5.0, 0.5};
  const auto result = simulate(jobs, machines, assigner, trace, options);
  EXPECT_GT(result.jobs_killed, 0);
  EXPECT_GT(result.checkpoints_written, 0);

  double total_recovered = 0.0;
  double total_lost = 0.0;
  for (const Machine& machine : machines) {
    const auto k = static_cast<std::size_t>(machine.id);
    const double capacity = result.makespan_s * machine.total_nodes;
    const double used = result.node_seconds[k] + result.lost_node_seconds[k] +
                        result.recovered_node_seconds[k] +
                        result.checkpoint_overhead_node_seconds[k] +
                        result.downtime_node_seconds[k];
    EXPECT_GE(result.node_seconds[k], 0.0);
    EXPECT_GE(result.lost_node_seconds[k], 0.0);
    EXPECT_GE(result.recovered_node_seconds[k], 0.0);
    EXPECT_GE(result.checkpoint_overhead_node_seconds[k], 0.0);
    EXPECT_LE(used, capacity + 1e-6);  // idle = capacity - used >= 0
    total_recovered += result.recovered_node_seconds[k];
    total_lost += result.lost_node_seconds[k];
  }
  EXPECT_GT(total_recovered, 0.0);
  // Jobs take at most 2 nodes, so each kill loses <= interval x 2.
  EXPECT_LE(total_lost, static_cast<double>(result.jobs_killed) *
                            options.checkpoint.interval_s * 2.0);
}

TEST(CheckpointedScheduler, CheckpointingRecoversWorkUnderIdenticalTrace) {
  // The acceptance property: under the same fault trace, checkpointing
  // turns lost node-seconds into recovered ones and cannot lose more per
  // kill than restart-from-zero.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  RoundRobinAssigner a1;
  const auto without = simulate(jobs, machines, a1, trace);
  RoundRobinAssigner a2;
  SchedulerOptions options;
  options.checkpoint = {5.0, 0.5};
  const auto with = simulate(jobs, machines, a2, trace, options);

  const auto total = [](const std::array<double, arch::kNumSystems>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  EXPECT_GT(total(without.lost_node_seconds), 0.0);
  EXPECT_GT(total(with.recovered_node_seconds), 0.0);
  EXPECT_LT(total(with.lost_node_seconds), total(without.lost_node_seconds));
  EXPECT_EQ(total(without.recovered_node_seconds), 0.0);
  EXPECT_EQ(without.checkpoints_written, 0);
}

TEST(CheckpointedScheduler, ZeroIntervalGoldenIdenticalToNoPolicy) {
  // A disabled policy (interval 0, even with a nonzero overhead setting)
  // must be bit-identical to the scheduler without any policy, across
  // thread configurations (exercised under TSan).
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(120, 4);
  const auto model = FaultModel::uniform(2500.0, 500.0, 0.1, {}, 31);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner reference_assigner;
  const auto reference = simulate(jobs, machines, reference_assigner, trace);
  EXPECT_GT(reference.jobs_killed, 0);

  SchedulerOptions zero;
  zero.checkpoint = {0.0, 5.0};  // interval 0 -> disabled
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<SimulationResult> results(threads);
    pool.parallel_for(0, threads, [&](std::size_t i) {
      RoundRobinAssigner assigner;
      results[i] = simulate(jobs, machines, assigner, trace, zero);
    });
    for (const auto& result : results) {
      expect_results_identical(reference, result);
      EXPECT_EQ(result.checkpoints_written, 0);
    }
  }
}

TEST(RetryPolicy, BackoffIsCappedAndJittered) {
  RetryPolicy policy;
  policy.base_delay_s = 10.0;
  policy.multiplier = 2.0;
  policy.max_delay_s = 60.0;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(2, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(3, 0.5), 40.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(4, 0.5), 60.0);   // capped
  EXPECT_DOUBLE_EQ(policy.delay_s(50, 0.5), 60.0);  // stays capped

  policy.jitter = 0.5;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.0), 5.0);   // -50 %
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 10.0);  // midpoint
  EXPECT_GT(policy.delay_s(1, 0.999), 14.9);       // approx +50 %
  EXPECT_THROW(policy.delay_s(0, 0.5), mphpc::ContractViolation);
}

// ------------------------------------------------- calendar event queue ----

struct EventOrder {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    return event_before(a, b);
  }
};

TEST(CalendarQueue, EmptyQueueReportsInfiniteNextTime) {
  CalendarQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), std::numeric_limits<double>::infinity());
}

void expect_events_equal(const SimEvent& a, const SimEvent& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.sub, b.sub);
}

TEST(CalendarQueue, PopsMatchReferenceOrderUnderMonotoneChurn) {
  // Interleaved pushes and pops against a sorted-multiset oracle, with
  // pushes constrained to never predate the last pop (the engine's
  // monotone access pattern). Duplicate timestamps are forced often so
  // the (time, kind, seq, sub) tie-break is exercised, not just times.
  CalendarQueue queue;
  std::multiset<SimEvent, EventOrder> oracle;
  Rng rng(404);
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    if (oracle.empty() || rng.bernoulli(0.55)) {
      SimEvent event;
      // Quantized offsets make exact-time collisions common.
      event.time_s = now + static_cast<double>(rng.below(64)) * 0.25;
      event.kind = static_cast<std::uint32_t>(rng.below(2));
      event.seq = rng.below(16);
      event.sub = rng.below(4);
      queue.push(event);
      oracle.insert(event);
    } else {
      ASSERT_EQ(queue.next_time(), oracle.begin()->time_s);
      const SimEvent popped = queue.pop_front();
      expect_events_equal(popped, *oracle.begin());
      oracle.erase(oracle.begin());
      now = popped.time_s;
    }
    ASSERT_EQ(queue.size(), oracle.size());
  }
  while (!oracle.empty()) {
    expect_events_equal(queue.pop_front(), *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, PopOrderIsIndependentOfInsertionOrder) {
  // The same event set pushed forwards and backwards must drain in the
  // identical sequence: ordering is the explicit total order, never a
  // bucket-layout or insertion-order accident.
  std::vector<SimEvent> events;
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    events.push_back({static_cast<double>(rng.below(50)),
                      static_cast<std::uint32_t>(rng.below(2)), rng.below(8),
                      rng.below(3)});
  }
  CalendarQueue forward;
  CalendarQueue backward;
  for (const SimEvent& e : events) forward.push(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it) backward.push(*it);
  while (!forward.empty()) {
    ASSERT_FALSE(backward.empty());
    expect_events_equal(forward.pop_front(), backward.pop_front());
  }
  EXPECT_TRUE(backward.empty());
}

TEST(CalendarQueue, BurstGrowthThenDrainKeepsOrder) {
  // A 50k-event burst forces repeated grow rebuilds; the full drain then
  // forces shrink rebuilds. Order must survive every geometry change.
  CalendarQueue queue;
  std::multiset<SimEvent, EventOrder> oracle;
  Rng rng(11);
  for (int i = 0; i < 50'000; ++i) {
    const SimEvent event{rng.uniform() * 1e4, 1,
                         static_cast<std::uint64_t>(i), 0};
    queue.push(event);
    oracle.insert(event);
  }
  while (!oracle.empty()) {
    expect_events_equal(queue.pop_front(), *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, DegenerateTimeDistributionsStaySorted) {
  {
    // Every event at the same instant: span 0 defeats width estimation;
    // the tie-break alone must order the drain.
    CalendarQueue queue;
    for (std::uint64_t seq = 100; seq-- > 0;) {
      queue.push({42.0, 1, seq, 0});
    }
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      const SimEvent event = queue.pop_front();
      EXPECT_EQ(event.time_s, 42.0);
      EXPECT_EQ(event.seq, seq);
    }
  }
  {
    // Huge timestamps near the exact-slot limit plus tiny gaps: the
    // fmod/full-scan fallbacks must keep exact order.
    CalendarQueue queue;
    std::multiset<SimEvent, EventOrder> oracle;
    Rng rng(13);
    for (int i = 0; i < 500; ++i) {
      const SimEvent event{4.0e15 + rng.uniform() * 4.0, 1,
                           static_cast<std::uint64_t>(i), 0};
      queue.push(event);
      oracle.insert(event);
    }
    while (!oracle.empty()) {
      expect_events_equal(queue.pop_front(), *oracle.begin());
      oracle.erase(oracle.begin());
    }
  }
}

// ---------------------------------------------- engine golden equivalence ----

/// Runs the same simulation through the calendar and reference engines
/// with independently constructed assigners and requires bit-identical
/// results.
template <typename MakeAssigner>
void expect_engines_identical(const std::vector<Job>& jobs,
                              const std::vector<Machine>& machines,
                              const FaultTrace& trace, SchedulerOptions options,
                              MakeAssigner make_assigner) {
  auto calendar_assigner = make_assigner();
  auto reference_assigner = make_assigner();
  options.engine = SimEngineKind::kCalendar;
  const auto calendar =
      simulate(jobs, machines, calendar_assigner, trace, options);
  options.engine = SimEngineKind::kReference;
  const auto reference =
      simulate(jobs, machines, reference_assigner, trace, options);
  expect_results_identical(calendar, reference);
}

TEST(EngineGolden, AllAssignersIdenticalUnderFaultsAndCheckpoints) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(1'500, 17);
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.05, {}, 23);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  SchedulerOptions options;
  options.checkpoint = {40.0, 2.0};
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return RoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return RandomAssigner(9); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return UserRoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return ModelBasedAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return OracleAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return GuardedModelBasedAssigner(); });
}

TEST(EngineGolden, BoundedDepthIdenticalForStatefulAssigners) {
  // With a stateful assigner the calendar engine counts every queued
  // candidate toward the depth, as the reference engine does, so a bounded
  // depth must end each pass at the same candidate. (For stateless
  // assigners the depth accounting intentionally differs — see
  // SchedulerOptions::backfill_depth.)
  const auto machines = tiny_cluster();
  const auto jobs = random_workload(800, 29);
  const auto model = FaultModel::uniform(3000.0, 500.0, 0.08, {}, 41);
  const auto trace = model.generate(machines, 80'000.0);
  for (const int depth : {1, 3, 16}) {
    SchedulerOptions options;
    options.backfill_depth = depth;
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return RandomAssigner(31); });
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return UserRoundRobinAssigner(); });
  }
}

TEST(EngineGolden, GuardedFallbackPathIdentical) {
  // Implausible predictions force GuardedModelBasedAssigner off its pure
  // path (stateless_assign() false after prime) and it cannot replay
  // calls, so the calendar engine must assign every candidate and still
  // match.
  const auto machines = tiny_cluster(3, 3, 3, 3);
  auto jobs = random_workload(800, 5);
  for (std::size_t i = 0; i < jobs.size(); i += 7) {
    jobs[i].predicted =
        core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
  }
  const auto model = FaultModel::uniform(2500.0, 400.0, 0.05, {}, 59);
  const auto trace = model.generate(machines, 60'000.0);
  SchedulerOptions options;
  options.backfill_depth = 3;
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return GuardedModelBasedAssigner(); });
}

TEST(EngineGolden, CollidingTimestampsResolveInJobIndexOrder) {
  // Two jobs killed by two simultaneous node failures retry with zero
  // jitter, producing two release events at the *identical* timestamp.
  // The (time, kind, seq) order requires job 0 to re-queue ahead of job 1,
  // observable because only one node is back when scheduling resumes.
  const auto machines = tiny_cluster();  // quartz: 2 nodes
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  };

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1},
                  {10.0, SystemId::kQuartz, -1},
                  {50.0, SystemId::kQuartz, +1},
                  {80.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100),
                                 make_job(1, 100, 100, 100, 100)};
  SchedulerOptions options;
  for (const auto engine : {SimEngineKind::kCalendar, SimEngineKind::kReference}) {
    options.engine = engine;
    QuartzOnly assigner;
    const auto result = simulate(jobs, machines, assigner, trace, options);
    EXPECT_EQ(result.jobs_killed, 2);
    EXPECT_EQ(result.total_retries, 2);
    EXPECT_EQ(result.completed_jobs, 2u);
    // Both retries release at exactly t = 15; the seq tie-break hands the
    // single repaired node at t = 50 to job 0, the t = 80 node to job 1.
    EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
    EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 150.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 80.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].end_s, 180.0);
    EXPECT_DOUBLE_EQ(result.makespan_s, 180.0);
  }
  expect_engines_identical(jobs, machines, trace, SchedulerOptions{},
                           [] { return QuartzOnly(); });
}

// ------------------------------------------- indexed backfill bound ----

/// Jobs of `widths.size()` width classes, a `gpu_share` of them
/// GPU-capable; with `mean_gap_s` > 0 they arrive as a Poisson process
/// instead of all at t = 0.
std::vector<Job> wide_workload(int n, std::uint64_t seed, const std::vector<int>& widths,
                               double mean_gap_s = 0.0, double gpu_share = 0.4) {
  std::vector<Job> jobs;
  Rng rng(seed);
  double submit = 0.0;
  for (int i = 0; i < n; ++i) {
    const int nodes = widths[rng.below(widths.size())];
    jobs.push_back(make_job(i, rng.uniform(1, 60), rng.uniform(1, 60),
                            rng.uniform(1, 60), rng.uniform(1, 60), nodes,
                            rng.bernoulli(gpu_share)));
    if (mean_gap_s > 0.0) {
      submit += -std::log(1.0 - rng.uniform()) * mean_gap_s;
      jobs.back().submit_s = submit;
    }
  }
  return jobs;
}

TEST(EngineGolden, RoundRobinBoundGrowsAcrossWidthClasses) {
  // Machines of different sizes give Round-Robin's rotating target
  // different free counts, so its startable width grows and shrinks
  // within one backfill pass; with five width classes, classes leave and
  // re-enter the pass and their cursors must catch up in FCFS order.
  const auto machines = tiny_cluster(24, 12, 8, 6);
  const auto jobs = wide_workload(1'500, 43, {1, 2, 3, 4, 6});
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return RoundRobinAssigner(); });
}

TEST(EngineGolden, RoundRobinBoundUnderFaultsCheckpointsAndArrivals) {
  // Kills resubmit jobs behind later sequence numbers, node failures
  // shrink a target's free pool mid-run, and Poisson arrivals keep the
  // queue shape changing between passes.
  const auto machines = tiny_cluster(24, 12, 8, 6);
  const auto jobs = wide_workload(1'500, 47, {1, 2, 3, 4, 6}, /*mean_gap_s=*/2.0);
  const auto model = FaultModel::uniform(3000.0, 400.0, 0.05, {}, 53);
  const auto trace = model.generate(machines, 60'000.0);
  ASSERT_TRUE(trace.enabled());
  SchedulerOptions options;
  options.checkpoint = {40.0, 2.0};
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return RoundRobinAssigner(); });
}

/// A pure assigner on the default hooks: machine `id mod machine count`.
class ByJobId final : public MachineAssigner {
 public:
  arch::SystemId assign(const Job& job, std::size_t,
                        const ClusterView& view) override {
    const auto& machines = view.machines();
    return machines[static_cast<std::size_t>(job.id) % machines.size()].id;
  }
  bool stateless_assign() const noexcept override { return true; }
  std::string name() const override { return "by-job-id"; }
};

TEST(EngineGolden, CustomStatelessAssignerUsesDefaultBound) {
  // A pure assigner that does not override startable_width() runs the
  // indexed pass under the default widest-free-pool bound.
  const auto machines = tiny_cluster(24, 12, 8, 6);
  const auto jobs = wide_workload(1'500, 59, {1, 2, 3, 4, 6});
  const auto model = FaultModel::uniform(3000.0, 400.0, 0.05, {}, 61);
  const auto trace = model.generate(machines, 60'000.0);
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return ByJobId(); });
  expect_engines_identical(jobs, machines, trace, SchedulerOptions{},
                           [] { return ByJobId(); });
}

/// FNV-1a over every outcome's machine, start and end bits and attempt
/// count, then the makespan bits: moves with any scheduling decision.
std::uint64_t outcome_hash(const SimulationResult& result) {
  std::string bytes;
  const auto put = [&bytes](const auto& value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  for (const JobOutcome& o : result.outcomes) {
    put(static_cast<int>(o.machine));
    put(o.start_s);
    put(o.end_s);
    put(o.attempts);
  }
  put(result.makespan_s);
  return fnv1a_64(bytes);
}

/// Gives every job a prediction off its true runtimes by up to +-50%, so
/// Model-based and Oracle place jobs differently.
std::vector<Job> with_noisy_predictions(std::vector<Job> jobs, std::uint64_t seed) {
  Rng rng(seed);
  for (Job& job : jobs) {
    core::SystemTimes noisy = job.runtime;
    for (double& t : noisy) t *= rng.uniform(0.5, 1.5);
    job.predicted = core::Rpv::relative_to(noisy, SystemId::kQuartz);
  }
  return jobs;
}

struct PinnedWorkload {
  const char* name;
  std::vector<Machine> machines;
  std::vector<Job> jobs;
  FaultTrace trace;
  CheckpointPolicy checkpoint;
};

/// The two batches the pinned-hash goldens run: five width classes under
/// faults and checkpoints, and a deep one- and two-node batch.
std::vector<PinnedWorkload> pinned_workloads() {
  std::vector<PinnedWorkload> workloads;
  {
    // Five width classes under node failures, kills and checkpoints.
    auto machines = tiny_cluster(24, 12, 8, 6);
    auto trace = FaultModel::uniform(3000.0, 400.0, 0.05, {}, 109)
                     .generate(machines, 60'000.0);
    EXPECT_TRUE(trace.enabled());
    workloads.push_back({"faulty", std::move(machines),
                         with_noisy_predictions(wide_workload(1'500, 107, {1, 2, 3, 4, 6}), 127),
                         std::move(trace),
                         CheckpointPolicy{40.0, 2.0}});
  }
  {
    // A one- and two-node batch that queues deeply on the real cluster.
    const arch::SystemCatalog catalog;
    workloads.push_back({"batch", default_cluster(catalog),
                         with_noisy_predictions(wide_workload(6'000, 113, {1, 2}), 131),
                         FaultTrace::none(),
                         CheckpointPolicy{}});
  }
  return workloads;
}

TEST(EngineGolden, IndexedPassUnderFiniteDepthPinned) {
  // With a stateless assigner the indexed pass counts only the candidates
  // within its startable width toward a finite backfill_depth, so the
  // reference engine is no oracle here; these hashes, recorded before the
  // pass learned to step over candidates that cannot beat the head's
  // reservation, pin its decisions instead.
  const std::vector<PinnedWorkload> workloads = pinned_workloads();
  using Make = std::function<std::unique_ptr<MachineAssigner>()>;
  const std::vector<std::pair<const char*, Make>> assigners = {
      {"rr", [] { return std::make_unique<RoundRobinAssigner>(); }},
      {"model", [] { return std::make_unique<ModelBasedAssigner>(); }},
      {"oracle", [] { return std::make_unique<OracleAssigner>(); }},
      {"guarded", [] { return std::make_unique<GuardedModelBasedAssigner>(); }},
      {"by-job-id", [] { return std::make_unique<ByJobId>(); }},
  };
  const int depths[] = {1, 16, 1000};
  // [workload][assigner][depth]
  const std::uint64_t expected[2][5][3] = {
      {{0x35f1e07a135d4537, 0xd74668b2972e5b1a, 0x805829e8f69adf76},
       {0xd259f2638bd0e0a0, 0x3fa6c659102ac012, 0xe4415287c963a3cd},
       {0x0455c6102d7ce253, 0xd0e93b56cbe066a0, 0x4cc845efd75e226e},
       {0xd259f2638bd0e0a0, 0x3fa6c659102ac012, 0xe4415287c963a3cd},
       {0x6f033dc9af3808ee, 0x4c409fbd5b6b4b7c, 0x4aad85b7f6b555e2}},
      {{0x29fabab8b4da89ff, 0x91e2681087a6fb60, 0x494749c7a9e79dc8},
       {0xde6ce3ec23d19a78, 0x2c3b5b44bd0a4526, 0x2c3b5b44bd0a4526},
       {0xf5cfb4092c31b260, 0x4c6b647ea3da6939, 0x4c6b647ea3da6939},
       {0xde6ce3ec23d19a78, 0x2c3b5b44bd0a4526, 0x2c3b5b44bd0a4526},
       {0x26360ea81c7a9d72, 0x06d433a1c1136664, 0x362e5787af536d98}},
  };
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const PinnedWorkload& load = workloads[w];
    for (std::size_t a = 0; a < assigners.size(); ++a) {
      for (std::size_t d = 0; d < std::size(depths); ++d) {
        const auto assigner = assigners[a].second();
        SchedulerOptions options;
        options.backfill_depth = depths[d];
        options.checkpoint = load.checkpoint;
        const auto result =
            simulate(load.jobs, load.machines, *assigner, load.trace, options);
        EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, load.jobs.size());
        EXPECT_EQ(outcome_hash(result), expected[w][a][d])
            << load.name << " " << assigners[a].first << " depth " << depths[d]
            << ": 0x" << std::hex << outcome_hash(result);
      }
    }
  }
}

TEST(EngineGolden, StatefulPassUnderFiniteDepthPinned) {
  // Random and User+RR must reach the same decisions however the pass
  // finds its candidates: every rejected assign() call replayed in order
  // and every queued candidate counted toward the depth. These hashes
  // were recorded from the full scan, which calls assign() on every
  // candidate in FCFS order. The third batch resubmits more jobs than
  // it holds, so FCFS sequence numbers run past twice the job count.
  std::vector<PinnedWorkload> workloads = pinned_workloads();
  {
    auto machines = tiny_cluster(6, 4, 3, 3);
    RetryPolicy retry;
    retry.max_attempts = 12;
    auto trace = FaultModel::uniform(4000.0, 300.0, 0.5, retry, 163)
                     .generate(machines, 40'000.0);
    workloads.push_back({"resubmits", std::move(machines),
                         wide_workload(1'000, 167, {1, 2, 3}, 0.0, 0.5),
                         std::move(trace), CheckpointPolicy{}});
  }
  using Make = std::function<std::unique_ptr<MachineAssigner>()>;
  const std::vector<std::pair<const char*, Make>> assigners = {
      {"random", [] { return std::make_unique<RandomAssigner>(173); }},
      {"user-rr", [] { return std::make_unique<UserRoundRobinAssigner>(); }},
  };
  const int depths[] = {0, 1, 16, 1000};
  // [workload][assigner][depth]
  const std::uint64_t expected[3][2][4] = {
      {{0x7c34ac5c8bdd0935, 0x06bfeadf1d372079, 0x53cb731545d725fa, 0xe4b9c95f1050b410},
       {0x1fd337aeab0ce1bc, 0xed5452da0dc83406, 0x06878f158a6035fd, 0x865e38c277342332}},
      {{0x235806ebc37f123c, 0x61bc44ef84918b52, 0x5beab2e724f749fc, 0xb51e3eae5c65f7c3},
       {0xfeaf73349eca860c, 0x15e407e14751afc9, 0x0b134bebb42d9e4b, 0x7eda668b310a6491}},
      {{0x61b882ca3060ea3e, 0x7dd38dc0e1d37129, 0x447d2bb48c5559df, 0x61b882ca3060ea3e},
       {0x0b02fbde81430c4f, 0x850c354b3cdb5b7c, 0xb4e6f1a6ad3a2d34, 0x0b02fbde81430c4f}},
  };
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const PinnedWorkload& load = workloads[w];
    for (std::size_t a = 0; a < assigners.size(); ++a) {
      for (std::size_t d = 0; d < std::size(depths); ++d) {
        const auto assigner = assigners[a].second();
        SchedulerOptions options;
        options.backfill_depth = depths[d];
        options.checkpoint = load.checkpoint;
        const auto result =
            simulate(load.jobs, load.machines, *assigner, load.trace, options);
        EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, load.jobs.size());
        if (w == 2) {
          EXPECT_GT(result.total_retries, static_cast<long long>(load.jobs.size()));
        }
        EXPECT_EQ(outcome_hash(result), expected[w][a][d])
            << load.name << " " << assigners[a].first << " depth " << depths[d]
            << ": 0x" << std::hex << outcome_hash(result);
      }
    }
  }
}

TEST(EngineGolden, ShadowWindowEndsExactlyAtShadowTime) {
  // Whole-second runtimes make many backfill candidates end exactly at
  // the head's shadow time. Such a job may start (end <= shadow time),
  // so the shadow-window step must use the engine's own comparison.
  std::vector<Job> jobs;
  Rng rng(151);
  for (int i = 0; i < 1'500; ++i) {
    const auto t = [&] { return static_cast<double>(1 + rng.below(6)); };
    const int nodes = 1 + static_cast<int>(rng.below(3));
    jobs.push_back(make_job(i, t(), t(), t(), t(), nodes, rng.bernoulli(0.4)));
  }
  jobs = with_noisy_predictions(std::move(jobs), 157);
  const auto machines = tiny_cluster(6, 4, 3, 3);
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return RoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return ModelBasedAssigner(); });
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return OracleAssigner(); });
}

/// Forwards everything the engine asks of an assigner and counts the
/// assign() calls.
class CountingAssigner final : public MachineAssigner {
 public:
  explicit CountingAssigner(MachineAssigner& inner) : inner_(inner) {}
  arch::SystemId assign(const Job& job, std::size_t started_index,
                        const ClusterView& view) override {
    ++calls_;
    return inner_.assign(job, started_index, view);
  }
  void prime(std::span<const Job> jobs) override { inner_.prime(jobs); }
  bool stateless_assign() const noexcept override { return inner_.stateless_assign(); }
  std::size_t lane(const Job& job) const noexcept override { return inner_.lane(job); }
  int startable_width(std::size_t started_index, const ClusterView& view,
                      std::size_t lane, SystemId machine) const override {
    return inner_.startable_width(started_index, view, lane, machine);
  }
  bool skip_rejected(const LaneCounts& rejected) override {
    return inner_.skip_rejected(rejected);
  }
  std::string name() const override { return inner_.name(); }
  long long calls() const noexcept { return calls_; }

 private:
  MachineAssigner& inner_;
  long long calls_ = 0;
};

TEST(IndexedBackfill, RoundRobinAssignCallsPerJobStayBounded) {
  // A batch that queues deeply on the real cluster. Round-Robin blocks
  // the head on its own full target machine while the other machines
  // keep free nodes, so bounding backfill by the cluster-wide free
  // maximum would assign and reject most of the queue on every pass.
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  const auto jobs = wide_workload(6'000, 67, {1, 2, 16, 64, 121});
  RoundRobinAssigner inner;
  CountingAssigner counting(inner);
  const auto result = simulate(jobs, machines, counting);
  ASSERT_EQ(result.completed_jobs, jobs.size());
  const double per_job =
      static_cast<double>(counting.calls()) / static_cast<double>(jobs.size());
  EXPECT_LE(per_job, 150.0) << counting.calls() << " assign() calls";
}

TEST(IndexedBackfill, ShadowWindowAssignCallsPerJob) {
  // A deep one- and two-node batch on the real cluster. Once every machine
  // but the head's reserved one is full, a candidate that cannot finish
  // before the head's shadow time can only be assigned and rejected;
  // the indexed pass steps over it without an assign() call. Here that
  // is ~2 calls per job for each strategy; assigning every candidate
  // within the startable width instead costs ~629 (Round-Robin), ~250
  // (Model-based) and ~254 (Oracle).
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  const auto jobs = with_noisy_predictions(wide_workload(20'000, 137, {1, 2}), 139);
  const auto per_job = [&](MachineAssigner& inner) {
    CountingAssigner counting(inner);
    const auto result = simulate(jobs, machines, counting);
    EXPECT_EQ(result.completed_jobs, jobs.size());
    return static_cast<double>(counting.calls()) / static_cast<double>(jobs.size());
  };
  RoundRobinAssigner rr;
  EXPECT_LE(per_job(rr), 4.0);
  ModelBasedAssigner model;
  EXPECT_LE(per_job(model), 4.0);
  OracleAssigner oracle;
  EXPECT_LE(per_job(oracle), 4.0);
}

// ------------------------------------------- replayed rejected calls ----

TEST(EngineGolden, UserRrGpuLaneDoomedWhileCpuLaneStarts) {
  // Two-node GPU machines under a GPU-heavy batch fill first, so the GPU
  // lane's calls are counted while the roomy CPU machines keep starting
  // CPU jobs behind them in the same pass.
  const auto machines = tiny_cluster(16, 8, 2, 2);
  const auto jobs = wide_workload(1'500, 71, {1, 2}, 0.0, /*gpu_share=*/0.75);
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return UserRoundRobinAssigner(); });
  // Kills, node failures, checkpoints and Poisson arrivals change both
  // lanes' free pools and queue shapes between passes.
  const auto arrivals =
      wide_workload(1'500, 73, {1, 2}, /*mean_gap_s=*/2.0, /*gpu_share=*/0.75);
  const auto model = FaultModel::uniform(3000.0, 400.0, 0.05, {}, 79);
  const auto trace = model.generate(machines, 60'000.0);
  ASSERT_TRUE(trace.enabled());
  SchedulerOptions options;
  options.checkpoint = {40.0, 2.0};
  expect_engines_identical(arrivals, machines, trace, options,
                           [] { return UserRoundRobinAssigner(); });
}

TEST(EngineGolden, CpuOnlyWorkloadLeavesOneLaneEmpty) {
  // No GPU job ever queues, so User+RR's GPU lane has no candidates and
  // the CPU lane alone decides which candidates are counted and replayed.
  const auto machines = tiny_cluster(6, 4, 3, 3);
  const auto jobs = wide_workload(1'500, 83, {1, 2, 3}, 0.0, /*gpu_share=*/0.0);
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return UserRoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return RandomAssigner(89); });
}

TEST(EngineGolden, DepthBudgetEndsInsideDoomedSuffix) {
  // A 1,500-job batch queues far deeper than the budget, so once the
  // cluster fills the budget ends among candidates that are counted, not
  // assigned: only those up to the depth-th queued job may be replayed.
  // Both lanes mixed and one lane alone are covered.
  const auto machines = tiny_cluster(6, 4, 3, 3);
  for (const double gpu_share : {0.4, 0.0}) {
    const auto jobs = wide_workload(1'500, 97, {1, 2, 3}, 0.0, gpu_share);
    for (const int depth : {64, 256}) {
      SchedulerOptions options;
      options.backfill_depth = depth;
      expect_engines_identical(jobs, machines, FaultTrace::none(), options,
                               [] { return RandomAssigner(101); });
      expect_engines_identical(jobs, machines, FaultTrace::none(), options,
                               [] { return UserRoundRobinAssigner(); });
    }
  }
}

TEST(EngineGolden, CustomStatefulAssignerOnDefaultHooks) {
  // A stateful assigner that keeps the default lane(), startable_width()
  // and skip_rejected() is never skipped: the pass admits every class and
  // has no shadow window, so every candidate is assigned.
  class CountingRotation final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job& job, std::size_t,
                          const ClusterView& view) override {
      const auto& machines = view.machines();
      const auto k = static_cast<std::size_t>(job.id) + calls_++;
      return machines[k % machines.size()].id;
    }
    std::string name() const override { return "counting-rotation"; }

   private:
    std::size_t calls_ = 0;
  };
  const auto machines = tiny_cluster(6, 4, 3, 3);
  const auto jobs = wide_workload(1'500, 103, {1, 2, 3});
  expect_engines_identical(jobs, machines, FaultTrace::none(), SchedulerOptions{},
                           [] { return CountingRotation(); });
  SchedulerOptions options;
  options.backfill_depth = 64;
  expect_engines_identical(jobs, machines, FaultTrace::none(), options,
                           [] { return CountingRotation(); });
}

TEST(IndexedBackfill, StatefulAssignCallsPerJobStayBounded) {
  // A deep batch on the real cluster. Random and User+RR must see every
  // candidate's call, but one that no machine could take (too wide for
  // its lane, or ending late in the shadow window) is counted and
  // replayed, not made. Here that is ~3.1 (Random) and ~2.4 (User+RR)
  // calls per job; assigning every candidate of a lane that could start
  // costs ~38 and ~64, and assigning the whole queue on every pass ~411
  // and ~1,087.
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  const auto jobs = wide_workload(6'000, 67, {1, 2});
  const auto per_job = [&](MachineAssigner& inner) {
    CountingAssigner counting(inner);
    const auto result = simulate(jobs, machines, counting);
    EXPECT_EQ(result.completed_jobs, jobs.size());
    return static_cast<double>(counting.calls()) / static_cast<double>(jobs.size());
  };
  RandomAssigner random(71);
  EXPECT_LE(per_job(random), 4.5);
  UserRoundRobinAssigner user_rr;
  EXPECT_LE(per_job(user_rr), 3.5);
}

// -------------------------------------------------- checkpoint planners ----

TEST(CheckpointPlanner, PerAppUniformPolicyMatchesFixedPolicyBitIdentically) {
  // When every job shares one app, a per-app planner naming that app must
  // reproduce the fixed-policy run exactly — and the planner must win
  // over an options.checkpoint it overrides.
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(400, 61);  // every job is "TestApp"
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.1, {}, 67);
  const auto trace = model.generate(machines, 50'000.0);
  // Interval well under the 1-30 s runtimes so attempts actually write.
  const CheckpointPolicy policy{5.0, 0.5};

  SchedulerOptions fixed;
  fixed.checkpoint = policy;
  RoundRobinAssigner a1;
  const auto fixed_run = simulate(jobs, machines, a1, trace, fixed);
  EXPECT_GT(fixed_run.checkpoints_written, 0);

  PerAppCheckpointPlanner planner({});
  planner.set("TestApp", policy);
  SchedulerOptions planned;
  planned.planner = &planner;
  planned.checkpoint = {999.0, 9.0};  // must be ignored: planner wins
  RoundRobinAssigner a2;
  const auto planned_run = simulate(jobs, machines, a2, trace, planned);
  expect_results_identical(fixed_run, planned_run);
}

TEST(CheckpointPlanner, PerAppPolicyForUnknownAppIsDisabledRun) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(300, 71);
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.1, {}, 73);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner a1;
  const auto plain = simulate(jobs, machines, a1, trace);

  PerAppCheckpointPlanner planner({});  // disabled fallback
  planner.set("NoSuchApp", {30.0, 2.0});
  SchedulerOptions options;
  options.planner = &planner;
  RoundRobinAssigner a2;
  const auto planned = simulate(jobs, machines, a2, trace, options);
  expect_results_identical(plain, planned);
  EXPECT_EQ(planned.checkpoints_written, 0);
}

TEST(AdaptiveYoungDaly, EstimateBlendsPriorAndObservedFailures) {
  const Job job = make_job(0, 10, 10, 10, 10);
  {
    // No prior, no observations: nothing suggests failures happen, so
    // checkpointing stays off.
    AdaptiveYoungDalyPlanner planner(10.0, /*prior_mtbf_s=*/0.0);
    planner.begin(4);
    EXPECT_TRUE(std::isinf(planner.estimated_mtbf_s(100.0)));
    EXPECT_FALSE(planner.policy_for(job, 100.0).enabled());

    // Two failures over 4 nodes x 100 s of node-time: MTBF = 400 / 2.
    planner.observe_node_failure(50.0);
    planner.observe_node_failure(80.0);
    EXPECT_EQ(planner.observed_failures(), 2);
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(100.0), 200.0);
    const auto policy = planner.policy_for(job, 100.0);
    EXPECT_DOUBLE_EQ(policy.interval_s, young_daly_interval(10.0, 200.0));
    EXPECT_DOUBLE_EQ(policy.overhead_s, 10.0);
  }
  {
    // A prior acts as prior_weight pseudo-failures at the prior MTBF.
    AdaptiveYoungDalyPlanner planner(10.0, /*prior_mtbf_s=*/1000.0,
                                     /*prior_weight=*/4.0);
    planner.begin(4);
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(0.0), 1000.0);
    planner.observe_node_failure(0.0);
    // (4 nodes x 500 s + 4 x 1000) / (1 + 4) = 1200.
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(500.0), 1200.0);
  }
  {
    // Zero overhead disables checkpointing regardless of the estimate.
    AdaptiveYoungDalyPlanner planner(0.0, 1000.0);
    planner.begin(4);
    EXPECT_FALSE(planner.policy_for(job, 100.0).enabled());
  }
}

TEST(AdaptiveYoungDaly, SimulationIsDeterministicAndEngineIdentical) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(400, 81);
  const auto model = FaultModel::uniform(1500.0, 400.0, 0.1, {}, 83);
  const auto trace = model.generate(machines, 80'000.0);

  const auto run = [&](SimEngineKind engine) {
    // Small overhead keeps the Young/Daly interval (~sqrt(2 C MTBF), MTBF
    // near 2000 s here) below the 1-30 s runtimes so checkpoints happen.
    AdaptiveYoungDalyPlanner planner(/*overhead_s=*/0.05,
                                     /*prior_mtbf_s=*/2000.0);
    SchedulerOptions options;
    options.planner = &planner;
    options.engine = engine;
    RoundRobinAssigner assigner;
    auto result = simulate(jobs, machines, assigner, trace, options);
    EXPECT_GT(planner.observed_failures(), 0);
    return result;
  };

  const auto calendar = run(SimEngineKind::kCalendar);
  const auto calendar_again = run(SimEngineKind::kCalendar);
  const auto reference = run(SimEngineKind::kReference);
  expect_results_identical(calendar, calendar_again);
  expect_results_identical(calendar, reference);
  EXPECT_GT(calendar.checkpoints_written, 0);
}

// ------------------------------------------------------- scale (gated) ----

TEST(SchedScale, MillionJobFaultySimulationCompletes) {
  // The 1M-job scale smoke (the tracked wall-time baseline lives in
  // results/BENCH_sched.json via `mphpc sched-scale`). Too slow for the
  // default tier-1 run; opt in with MPHPC_SCHED_SCALE=1.
  if (std::getenv("MPHPC_SCHED_SCALE") == nullptr) {
    GTEST_SKIP() << "set MPHPC_SCHED_SCALE=1 to run the 1M-job scale smoke";
  }
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  const auto jobs = random_workload(1'000'000, 77);
  const auto model =
      FaultModel::uniform(/*node_mtbf_s=*/200.0 * 3600.0,
                          /*mttr_s=*/2.0 * 3600.0, /*kill_probability=*/0.02,
                          {}, 7);
  const auto trace = model.generate(machines, 50'000.0);
  GuardedModelBasedAssigner assigner;
  SchedulerOptions options;
  options.backfill_depth = 1000;
  const auto result = simulate(jobs, machines, assigner, trace, options);
  EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, jobs.size());
  EXPECT_GT(result.jobs_killed, 0);
}

}  // namespace
}  // namespace mphpc::sched
