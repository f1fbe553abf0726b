// The three perfbench workloads and the set-up they share.
//
// An untraced run (run_offline, run_sched, run_serve) fills a Report with
// the end-to-end metrics, the same set on every workload. A traced run
// fills it with every per-layer metric: it traces its own workload's
// layers at full size and the other layers on a probe of the paper model
// (trace_pipeline, trace_sched, trace_serve), timing calls into each
// module's public functions from here — nothing inside src/ is
// instrumented.
#pragma once

#include <cstdint>
#include <string>

#include "core/dataset.hpp"
#include "core/model_selection.hpp"
#include "core/predictor.hpp"
#include "data/split.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string mphpc;  ///< path of the `mphpc` CLI (serve daemons)
};

void run_offline(const RunArgs& args, Report& report);
void run_sched(const RunArgs& args, Report& report);
void run_serve(const RunArgs& args, Report& report);

/// The paper's model: 200 boosting rounds of depth 7, every other option
/// at its GbtOptions default.
[[nodiscard]] mphpc::core::CrossArchPredictor::Options paper_options();

/// Paper-scale campaign: 47 inputs per application (~11.3k rows).
inline constexpr int kPaperInputsPerApp = 47;
/// offline_paper cycles through this many datasets drawn from its seed, so
/// its figures describe the pipeline rather than one draw of the data.
inline constexpr std::size_t kDatasets = 8;
/// The split seed the repository's experiment benches use.
inline constexpr std::uint64_t kPaperSplitSeed = 42;

/// The paper model: the library's default campaign (seed 2024) at paper
/// scale -> dataset -> 90/10 split -> train. sched_fig78 and serve_mixed
/// use it as set-up, so their seeds vary the jobs and the traffic, not the
/// model.
struct TrainedModel {
  mphpc::core::Dataset dataset;
  mphpc::data::TrainTestSplit split;
  mphpc::core::CrossArchPredictor predictor;
};
[[nodiscard]] TrainedModel train_paper_model();

/// The model's accuracy on its 10% test split.
[[nodiscard]] mphpc::core::EvalMetrics test_accuracy(const TrainedModel& model);

/// Per-layer tracers. `full` is set on the workload the layers belong to
/// (the offline pipeline, the scheduler, the serve path); the other
/// workloads run a smaller probe. Each returns its tracing overhead in %
/// (what the traced run's own workload reports as trace_overhead_pct).

/// sim, core, ml: pipeline passes, each dataset twice in a row, keeping the
/// second pass's stage times. Full: offline_paper's datasets for
/// `args.seconds`; probe: two pairs of passes over the paper dataset.
/// `model` is recompiled on its own for ml.compile_s.
double trace_pipeline(const RunArgs& args, bool full, const TrainedModel& model,
                      Report& report);
/// sched: predicts every row of `model`'s dataset, samples jobs from the
/// seed (full: sched_fig78's first 20k-job sample; probe: 4000 jobs), and
/// runs each strategy untraced, then behind a CountingAssigner.
double trace_sched(const RunArgs& args, bool full, const TrainedModel& model,
                   Report& report);
/// serve: fixed-rate traffic against `mphpc serve` daemons bootstrapped
/// from `model_path` (full: serve_mixed's low and high phases; probe: one
/// of each), then an in-process replay of the request stream. Scratch
/// files go under `dir`.
double trace_serve(const RunArgs& args, bool full, const std::string& model_path,
                   const std::string& dir, Report& report);

}  // namespace perfbench
