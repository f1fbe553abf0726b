// offline_paper: the paper's offline pipeline at paper scale, one pass =
// sim::run_campaign -> core::build_dataset -> CrossArchPredictor::train on
// the 90% split -> batch predict on the 10% test split -> core::evaluate
// -> serialize_text/from_text round trip.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/model_selection.hpp"
#include "ml/compiled_ensemble.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mphpc;

core::CrossArchPredictor::Options paper_options() {
  core::CrossArchPredictor::Options options;
  options.gbt.n_rounds = 200;
  options.gbt.max_depth = 7;
  return options;
}

namespace {

std::vector<sim::RunProfile> paper_campaign(std::uint64_t seed) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  sim::CampaignOptions options;
  options.inputs_per_app = kPaperInputsPerApp;
  options.seed = seed;
  return sim::run_campaign(apps, systems, options, &ThreadPool::shared());
}

/// Campaign and split seeds of one dataset of the pipeline.
struct DatasetSeeds {
  std::uint64_t campaign = 0;
  std::uint64_t split = 0;
};

/// offline_paper's datasets, drawn from the run's seed.
std::vector<DatasetSeeds> seeded_datasets(std::uint64_t seed) {
  std::vector<DatasetSeeds> out;
  for (std::size_t d = 0; d < kDatasets; ++d) {
    const auto index = static_cast<std::uint64_t>(d);
    out.push_back({derive_seed(seed, "perfbench-campaign", index),
                   derive_seed(seed, "perfbench-split", index)});
  }
  return out;
}

/// The paper model's dataset (see train_paper_model).
DatasetSeeds paper_dataset() { return {sim::CampaignOptions{}.seed, kPaperSplitSeed}; }

bool bit_equal(const ml::Matrix& a, const ml::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double x = a(r, c);
      const double y = b(r, c);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

/// Stage times of one pipeline pass, in seconds.
struct PassTimes {
  double campaign = 0.0;
  double dataset = 0.0;
  double train = 0.0;
  double predict = 0.0;
  double evaluate = 0.0;
  double save_load = 0.0;
  double total = 0.0;
};

struct PassResult {
  PassTimes times;
  double steal = 0.0;  ///< share of host CPU time stolen during the pass
  core::EvalMetrics metrics;
  std::size_t test_rows = 0;
  bool ok = true;
};

/// One pass over one dataset.
PassResult run_pass(const DatasetSeeds& seeds, Report& report) {
  PassResult out;
  const CpuTimes cpu_before = cpu_times();
  const auto t0 = Clock::now();
  const auto profiles = paper_campaign(seeds.campaign);
  const auto t1 = Clock::now();
  const core::Dataset ds = core::build_dataset(profiles);
  const auto t2 = Clock::now();
  const auto split = data::train_test_split(ds.num_rows(), 0.10, seeds.split);
  core::CrossArchPredictor predictor(paper_options());
  predictor.train(ds, split.train, &ThreadPool::shared());
  const auto t3 = Clock::now();
  const ml::Matrix x_test = ds.features(split.test);
  const auto t4 = Clock::now();
  const ml::Matrix pred = predictor.predict(x_test, &ThreadPool::shared());
  const auto t5 = Clock::now();
  out.metrics = core::evaluate(ds.targets(split.test), pred);
  const auto t6 = Clock::now();
  const core::CrossArchPredictor reloaded =
      core::CrossArchPredictor::from_text(predictor.serialize_text());
  const auto t7 = Clock::now();
  out.steal = steal_share(cpu_before, cpu_times());

  out.times = {seconds_between(t0, t1), seconds_between(t1, t2),
               seconds_between(t2, t3), seconds_between(t4, t5),
               seconds_between(t5, t6), seconds_between(t6, t7),
               seconds_between(t0, t7)};
  out.test_rows = split.test.size();

  // Checks (outside the timed stages).
  out.ok &= report.check(bit_equal(pred, predictor.model().predict(x_test)),
                         "compiled batch predict != GbtRegressor::predict");
  out.ok &= report.check(bit_equal(pred, reloaded.predict(x_test)),
                         "serialize_text/from_text changed predictions");
  out.ok &= report.check(std::isfinite(out.metrics.mae) && std::isfinite(out.metrics.sos),
                         "MAE/SOS not finite");
  out.ok &= report.check(!split.test.empty() && ds.num_rows() > 10000,
                         "paper-scale dataset expected");
  return out;
}

/// Passes cycling through `datasets`, each dataset `repeat` times in a
/// row, until every dataset was passed at least twice per repeat and
/// `seconds` have passed. Counts each pass as an operation and checks that
/// passes over one dataset agree.
std::vector<PassResult> run_passes(const std::vector<DatasetSeeds>& datasets,
                                   std::size_t repeat, double seconds, Report& report) {
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  while (passes.size() < 2 * repeat * datasets.size() ||
         seconds_between(start, Clock::now()) < seconds) {
    const std::size_t index = passes.size() / repeat % datasets.size();
    passes.push_back(run_pass(datasets[index], report));
    const PassResult& p = passes.back();
    report.attempt();
    if (!p.ok) report.fail();
    const PassResult& first = passes[index * repeat];
    report.check(p.metrics.mae == first.metrics.mae && p.metrics.sos == first.metrics.sos,
                 "passes over one dataset disagree (non-deterministic)");
  }
  return passes;
}

}  // namespace

TrainedModel train_paper_model() {
  const DatasetSeeds seeds = paper_dataset();
  core::Dataset ds = core::build_dataset(paper_campaign(seeds.campaign));
  auto split = data::train_test_split(ds.num_rows(), 0.10, seeds.split);
  core::CrossArchPredictor predictor(paper_options());
  predictor.train(ds, split.train, &ThreadPool::shared());
  return {std::move(ds), std::move(split), std::move(predictor)};
}

core::EvalMetrics test_accuracy(const TrainedModel& model) {
  const auto& test = model.split.test;
  return core::evaluate(model.dataset.targets(test),
                        model.predictor.predict(model.dataset.features(test),
                                                &ThreadPool::shared()));
}

void run_offline(const RunArgs& args, Report& report) {
  const std::vector<DatasetSeeds> datasets = seeded_datasets(args.seed);
  // Set-up: the run's inputs (every dataset's campaign + build), kSetups times.
  std::vector<double> setups;
  std::vector<double> setup_steal;
  for (int i = 0; i < kSetups; ++i) {
    const CpuTimes cpu_before = cpu_times();
    const auto start = Clock::now();
    for (const DatasetSeeds& seeds : datasets) {
      const core::Dataset ds = core::build_dataset(paper_campaign(seeds.campaign));
      report.check(ds.num_rows() > 0, "empty dataset");
    }
    setups.push_back(seconds_between(start, Clock::now()));
    setup_steal.push_back(steal_share(cpu_before, cpu_times()));
  }

  // Passes cycle through the datasets and fill the run; every dataset is
  // passed at least twice.
  const std::vector<PassResult> passes = run_passes(datasets, 1, args.seconds, report);

  // Per dataset: its calm median pass time and its (deterministic)
  // accuracy; each figure is the mean over the datasets, so an uneven
  // number of passes per dataset does not tilt it.
  double pipeline_s = 0.0;
  double mae = 0.0;
  double sos = 0.0;
  for (std::size_t d = 0; d < kDatasets; ++d) {
    std::vector<double> totals;
    std::vector<double> steal;
    for (std::size_t i = d; i < passes.size(); i += kDatasets) {
      totals.push_back(passes[i].times.total);
      steal.push_back(passes[i].steal);
    }
    pipeline_s += calm_median(totals, steal) / kDatasets;
    mae += passes[d].metrics.mae / kDatasets;
    sos += passes[d].metrics.sos / kDatasets;
  }
  std::fprintf(stderr, "perfbench: offline_paper: %zu passes, pipeline %.4f s\n",
               passes.size(), pipeline_s);
  report.add("setup_s", calm_median(setups, setup_steal), "s");
  report.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
  report.add("ops_per_s", 1.0 / pipeline_s, "1/s");
  report.add("rpv_mae", mae, "ratio");
  report.add("rpv_sos", sos, "share");
}

double trace_pipeline(const RunArgs& args, bool full, const TrainedModel& model,
                      Report& report) {
  // Each dataset is passed twice in a row and the second pass keeps its
  // stage times. The stage spans are clock reads between calls the pass
  // makes anyway, so the pair-to-pair difference (the overhead returned)
  // is the noise floor of a pass.
  const std::vector<PassResult> passes =
      full ? run_passes(seeded_datasets(args.seed), 2, args.seconds, report)
           : run_passes({paper_dataset()}, 2, 0.0, report);
  const auto stage = [&](double PassTimes::*field, std::size_t parity) {
    std::vector<double> v;
    std::vector<double> steal;
    for (std::size_t i = parity; i < passes.size(); i += 2) {
      v.push_back(passes[i].times.*field);
      steal.push_back(passes[i].steal);
    }
    return calm_median(v, steal);
  };
  const auto traced = [&](double PassTimes::*field) { return stage(field, 1); };

  // The compiled engine is built inside train(); compile it again on its
  // own to time that layer.
  std::vector<double> compiles;
  std::size_t nodes = 0;
  for (int i = 0; i < 5; ++i) {
    const auto c0 = Clock::now();
    const auto compiled = ml::CompiledEnsemble::compile(model.predictor.model());
    compiles.push_back(seconds_between(c0, Clock::now()));
    nodes = compiled.n_nodes();
  }

  const double predict_s = traced(&PassTimes::predict);
  report.add("sim.campaign_s", traced(&PassTimes::campaign), "s");
  report.add("core.dataset_s", traced(&PassTimes::dataset), "s");
  report.add("ml.train_s", traced(&PassTimes::train), "s");
  report.add("ml.compile_s", median(compiles), "s");
  report.add("ml.nodes", static_cast<double>(nodes), "count");
  report.add("ml.predict_batch_s", predict_s, "s");
  report.add("ml.predict_rows_per_s",
             static_cast<double>(passes.front().test_rows) / predict_s, "1/s");
  report.add("core.evaluate_s", traced(&PassTimes::evaluate), "s");
  report.add("ml.save_load_s", traced(&PassTimes::save_load), "s");
  return 100.0 * (traced(&PassTimes::total) / stage(&PassTimes::total, 0) - 1.0);
}

}  // namespace perfbench
