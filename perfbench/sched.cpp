// sched_fig78: the Fig. 7/8 scheduling study. Set-up trains the paper
// model and draws job samples with sched::sample_jobs from its
// predictions; the timed part runs sched::simulate under Round-Robin,
// Random, User+RR, Model-based and Oracle assignment. trace_sched times
// the same calls per strategy behind a counting assigner.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/workload_gen.hpp"
#include "workload/app_catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mphpc;

namespace {

/// Jobs per simulation; the paper uses 50k, which takes ~50 s per study.
constexpr std::size_t kJobs = 20000;
/// Rounds cycle through this many job samples drawn from the seed; the
/// makespan reduction is their mean.
constexpr std::size_t kSamples = 4;
/// Jobs of the sample the other workloads' traced runs schedule.
constexpr std::size_t kProbeJobs = 4000;

struct Strategy {
  const char* key;
  std::function<std::unique_ptr<sched::MachineAssigner>()> make;
};

const std::vector<Strategy>& strategies() {
  static const std::vector<Strategy> list = {
      {"rr", [] { return std::make_unique<sched::RoundRobinAssigner>(); }},
      {"random", [] { return std::make_unique<sched::RandomAssigner>(11); }},
      {"user_rr", [] { return std::make_unique<sched::UserRoundRobinAssigner>(); }},
      {"model", [] { return std::make_unique<sched::ModelBasedAssigner>(); }},
      {"oracle", [] { return std::make_unique<sched::OracleAssigner>(); }},
  };
  return list;
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_result(const sched::SimulationResult& a, const sched::SimulationResult& b) {
  if (!same_bits(a.makespan_s, b.makespan_s) ||
      !same_bits(a.avg_bounded_slowdown, b.avg_bounded_slowdown) ||
      !same_bits(a.avg_wait_s, b.avg_wait_s) || !same_bits(a.node_seconds, b.node_seconds) ||
      a.completed_jobs != b.completed_jobs || a.abandoned_jobs != b.abandoned_jobs ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (x.machine != y.machine || !same_bits(x.start_s, y.start_s) ||
        !same_bits(x.end_s, y.end_s) || x.attempts != y.attempts) {
      return false;
    }
  }
  return true;
}

/// Every job completed and no machine committed more node-seconds than
/// makespan x capacity.
bool plausible_result(const sched::SimulationResult& r,
                      const std::vector<sched::Machine>& machines, std::size_t jobs) {
  if (r.completed_jobs != jobs || r.abandoned_jobs != 0 || !(r.makespan_s > 0.0)) {
    return false;
  }
  for (const sched::Machine& m : machines) {
    const double used = r.node_seconds[static_cast<std::size_t>(m.id)];
    if (used > r.makespan_s * m.total_nodes * (1.0 + 1e-9)) return false;
  }
  return true;
}

/// Job samples of `jobs` jobs each, drawn with sched::sample_jobs from the
/// model's predicted RPVs of every dataset row; sample i uses the i-th
/// seed derived from `seed`.
struct Samples {
  std::vector<std::vector<sched::Job>> jobs;
  double predict_s = 0.0;
  double sample_s = 0.0;  ///< per sample
};

Samples draw_samples(const TrainedModel& model, std::uint64_t seed, std::size_t count,
                     std::size_t jobs) {
  const workload::AppCatalog apps;
  Samples s;
  const auto t0 = Clock::now();
  const ml::Matrix predictions =
      model.predictor.predict(model.dataset.features(), &ThreadPool::shared());
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    s.jobs.push_back(sched::sample_jobs(model.dataset, predictions, apps, jobs,
                                       derive_seed(seed, "perfbench-jobs", i)));
  }
  s.predict_s = seconds_between(t0, t1);
  s.sample_s = seconds_between(t1, Clock::now()) / static_cast<double>(count);
  return s;
}

double reduction_pct(const sched::SimulationResult& rr, const sched::SimulationResult& model) {
  return 100.0 * (1.0 - model.makespan_s / rr.makespan_s);
}

}  // namespace

void run_sched(const RunArgs& args, Report& report) {
  // Set-up, kSetups times: the paper model and the run's job samples.
  std::vector<double> setups;
  std::vector<double> setup_steal;
  std::optional<TrainedModel> model;
  Samples samples;
  for (int i = 0; i < kSetups; ++i) {
    const CpuTimes cpu_before = cpu_times();
    const auto start = Clock::now();
    model.emplace(train_paper_model());
    samples = draw_samples(*model, args.seed, kSamples, kJobs);
    setups.push_back(seconds_between(start, Clock::now()));
    setup_steal.push_back(steal_share(cpu_before, cpu_times()));
  }
  const arch::SystemCatalog systems;
  const auto machines = sched::default_cluster(systems);
  const auto& list = strategies();

  // Rounds: the five simulate() calls on one job sample, cycling through
  // the samples, repeated to fill the run (every sample at least once).
  // reference[i][k] is sample i under strategy k.
  std::vector<std::vector<sched::SimulationResult>> reference(kSamples);
  std::vector<double> round_s;
  std::vector<double> round_steal;
  const auto start = Clock::now();
  while (round_s.size() < kSamples || seconds_between(start, Clock::now()) < args.seconds) {
    const std::size_t i = round_s.size() % kSamples;
    const auto& jobs = samples.jobs[i];
    const CpuTimes cpu_before = cpu_times();
    double total = 0.0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      auto assigner = list[k].make();
      const auto t0 = Clock::now();
      sched::SimulationResult result = sched::simulate(jobs, machines, *assigner);
      total += seconds_between(t0, Clock::now());
      report.attempt();
      bool ok = report.check(plausible_result(result, machines, jobs.size()),
                             "simulation left jobs unfinished or overfilled a machine");
      if (reference[i].size() < list.size()) {
        reference[i].push_back(std::move(result));
      } else {
        ok &= report.check(same_result(result, reference[i][k]),
                           "repeated simulation differs");
      }
      if (!ok) report.fail();
    }
    round_s.push_back(total);
    round_steal.push_back(steal_share(cpu_before, cpu_times()));
  }

  double reduction = 0.0;
  for (const auto& results : reference) {
    reduction += reduction_pct(results[0], results[3]) / kSamples;
  }
  const double sched_s = calm_median(round_s, round_steal);
  std::fprintf(stderr,
               "perfbench: sched_fig78: %zu rounds, five simulations %.4f s (steal %.2f%%), "
               "makespan reduction %.2f%%\n",
               round_s.size(), sched_s, 100.0 * median(round_steal), reduction);
  const core::EvalMetrics accuracy = test_accuracy(*model);
  report.add("setup_s", calm_median(setups, setup_steal), "s");
  report.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
  report.add("ops_per_s", static_cast<double>(list.size()) / sched_s, "1/s");
  report.add("rpv_mae", accuracy.mae, "ratio");
  report.add("rpv_sos", accuracy.sos, "share");
}

double trace_sched(const RunArgs& args, bool full, const TrainedModel& model,
                   Report& report) {
  // Batch prediction and sampling, three times; the last sample is kept.
  std::vector<double> predicts;
  std::vector<double> sample_times;
  Samples samples;
  for (int i = 0; i < 3; ++i) {
    samples = draw_samples(model, args.seed, 1, full ? kJobs : kProbeJobs);
    predicts.push_back(samples.predict_s);
    sample_times.push_back(samples.sample_s);
  }
  const auto& jobs = samples.jobs.front();
  const arch::SystemCatalog systems;
  const auto machines = sched::default_cluster(systems);
  const auto& list = strategies();

  // Each strategy on its own, then behind a counting wrapper; the wrapped
  // run must give the same SimulationResult, bit for bit.
  double plain_total = 0.0;
  double traced_total = 0.0;
  std::vector<sched::SimulationResult> plain;
  for (std::size_t k = 0; k < list.size(); ++k) {
    auto assigner = list[k].make();
    const auto p0 = Clock::now();
    plain.push_back(sched::simulate(jobs, machines, *assigner));
    plain_total += seconds_between(p0, Clock::now());
    report.attempt();
    if (!report.check(plausible_result(plain.back(), machines, jobs.size()),
                      "simulation left jobs unfinished or overfilled a machine")) {
      report.fail();
    }

    auto inner = list[k].make();
    CountingAssigner counting(*inner);
    const auto t0 = Clock::now();
    const sched::SimulationResult result = sched::simulate(jobs, machines, counting);
    const double sim_s = seconds_between(t0, Clock::now());
    traced_total += sim_s;
    report.attempt();
    if (!report.check(same_result(result, plain.back()),
                      "counting assigner changed the SimulationResult")) {
      report.fail();
    }
    const std::string key = list[k].key;
    report.add("sched.sim_s." + key, sim_s, "s");
    report.add("sched.assign_calls." + key, static_cast<double>(counting.calls()),
               "count");
    report.add("sched.assign_calls_per_job." + key,
               static_cast<double>(counting.calls()) /
                   static_cast<double>(jobs.size()),
               "ratio");
  }
  report.add("sched.sample_jobs_s", median(sample_times), "s");
  report.add("core.predict_rpvs_s", median(predicts), "s");
  report.add("sched.makespan_reduction_pct", reduction_pct(plain[0], plain[3]), "%");
  return 100.0 * (traced_total / plain_total - 1.0);
}

}  // namespace perfbench
