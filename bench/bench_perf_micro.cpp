// Infrastructure micro-benchmarks (google-benchmark): simulator run rate,
// dataset assembly, model fit/predict throughput, scheduler event rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "arch/system_catalog.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "ml/compiled_ensemble.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/workload_gen.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/profiler.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"
#include "workload/input_config.hpp"

// Global allocation counter so the serve-path benches can assert the
// steady-state single-row predict is allocation-free (the hot request
// path of `mphpc serve`). Counts every operator new in the process.
// GCC pattern-matches replaced new/delete pairs against the builtin
// allocator and mis-flags the (correct) malloc/free implementations.
// lint:allow-file raw-new -- replacing the global allocator to count it
// is the one place 'operator new/delete' definitions are the point
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mphpc;

const workload::AppCatalog& apps() {
  static const workload::AppCatalog catalog;
  return catalog;
}

const arch::SystemCatalog& systems() {
  static const arch::SystemCatalog catalog;
  return catalog;
}

// One simulated profile (analytic model + counter synthesis).
void BM_ProfileOneRun(benchmark::State& state) {
  const sim::Profiler profiler(1);
  const auto& app = apps().get("CoMD");
  const auto inputs = workload::make_inputs(app, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(
        app, inputs[0], workload::ScaleClass::kOneNode, systems().get("lassen")));
  }
}
BENCHMARK(BM_ProfileOneRun);

// Full campaign sweep at a reduced size, per-run rate reported.
void BM_Campaign(benchmark::State& state) {
  sim::CampaignOptions options;
  options.inputs_per_app = static_cast<int>(state.range(0));
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto profiles = sim::run_campaign(apps(), systems(), options);
    runs += profiles.size();
    benchmark::DoNotOptimize(profiles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_Campaign)->Arg(2)->Arg(8);

// Dataset assembly from a fixed campaign.
void BM_BuildDataset(benchmark::State& state) {
  sim::CampaignOptions options;
  options.inputs_per_app = 8;
  const auto profiles = sim::run_campaign(apps(), systems(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_dataset(profiles).num_rows());
  }
}
BENCHMARK(BM_BuildDataset);

struct FitFixture {
  ml::Matrix x;
  ml::Matrix y;

  static const FitFixture& get() {
    static const FitFixture f = [] {
      sim::CampaignOptions options;
      options.inputs_per_app = 6;
      const auto ds = core::build_dataset(run_campaign(apps(), systems(), options));
      return FitFixture{ds.features(), ds.targets()};
    }();
    return f;
  }
};

void BM_GbtFit(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::GbtOptions options;
  options.n_rounds = static_cast<int>(state.range(0));
  options.max_depth = 6;
  for (auto _ : state) {
    ml::GbtRegressor model(options);
    model.fit(f.x, f.y);
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_GbtFit)->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);

// Split-search method comparison on the full counter feature set: the
// paper-scale fit (200 rounds, default depth/subsampling) is the tracked
// configuration for the histogram-vs-exact trajectory (BENCH_gbt.json).
struct MethodFixture {
  ml::Matrix x;
  ml::Matrix y;

  static const MethodFixture& get() {
    static const MethodFixture f = [] {
      sim::CampaignOptions options;
      options.inputs_per_app = 24;
      const auto ds = core::build_dataset(
          run_campaign(apps(), systems(), options, &ThreadPool::shared()));
      return MethodFixture{ds.features(), ds.targets()};
    }();
    return f;
  }
};

void gbt_fit_method(benchmark::State& state, ml::GbtTreeMethod method) {
  const auto& f = MethodFixture::get();
  ml::GbtOptions options;
  options.n_rounds = static_cast<int>(state.range(0));
  options.tree_method = method;
  for (auto _ : state) {
    ml::GbtRegressor model(options);
    model.fit(f.x, f.y, &ThreadPool::shared());
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(f.y.cols()));
}

void BM_GbtFitExact(benchmark::State& state) {
  gbt_fit_method(state, ml::GbtTreeMethod::kExact);
}
BENCHMARK(BM_GbtFitExact)->Arg(20)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GbtFitHist(benchmark::State& state) {
  gbt_fit_method(state, ml::GbtTreeMethod::kHist);
}
BENCHMARK(BM_GbtFitHist)->Arg(20)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GbtPredict(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::GbtOptions options;
  options.n_rounds = 50;
  options.max_depth = 6;
  ml::GbtRegressor model(options);
  model.fit(f.x, f.y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(f.x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.x.rows()));
}
BENCHMARK(BM_GbtPredict)->Unit(benchmark::kMillisecond);

// ------------------------------------------- compiled batch inference ----
// Reference node-walking predict vs the compiled bin-code engine
// (ml/compiled_ensemble.hpp) on the same model and a 4096-row batch.
// Single-threaded on both sides so the ratio is the per-core speedup.

ml::Matrix tiled_rows(const ml::Matrix& src, std::size_t rows) {
  ml::Matrix out(rows, src.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto s = src.row(r % src.rows());
    std::copy(s.begin(), s.end(), out.row(r).begin());
  }
  return out;
}

const ml::GbtRegressor& predict_gbt_model() {
  static const ml::GbtRegressor model = [] {
    const auto& f = FitFixture::get();
    ml::GbtOptions options;
    options.n_rounds = 50;
    options.max_depth = 6;
    ml::GbtRegressor m(options);
    m.fit(f.x, f.y);
    return m;
  }();
  return model;
}

void BM_GbtPredictRef(benchmark::State& state) {
  const auto& model = predict_gbt_model();
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictRef)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_GbtPredictCompiled(benchmark::State& state) {
  const auto compiled = ml::CompiledEnsemble::compile(predict_gbt_model());
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictCompiled)->Arg(4096)->Unit(benchmark::kMillisecond);

// The same engine on an exact-greedy model: exact training mints fresh
// midpoint thresholds every round, so some feature passes 255 distinct
// cuts and the model compiles to the wide (64-bit word, uint16 code) pool.
void BM_GbtPredictCompiledWide(benchmark::State& state) {
  static const ml::GbtRegressor model = [] {
    const auto& f = FitFixture::get();
    ml::GbtOptions options;
    options.n_rounds = 50;
    options.max_depth = 6;
    options.tree_method = ml::GbtTreeMethod::kExact;
    ml::GbtRegressor m(options);
    m.fit(f.x, f.y);
    return m;
  }();
  const auto compiled = ml::CompiledEnsemble::compile(model);
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictCompiledWide)->Arg(4096)->Unit(benchmark::kMillisecond);

// Compile-time cost (the price paid at train/load/refit).
void BM_GbtCompile(benchmark::State& state) {
  const auto& model = predict_gbt_model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::CompiledEnsemble::compile(model).n_nodes());
  }
}
BENCHMARK(BM_GbtCompile)->Unit(benchmark::kMillisecond);

// Model-text round trip of the paper-scale predictor (the paper's ~11.3k-row
// campaign, 200 rounds, depth 7, ~145k nodes): serialize_text + from_text,
// recompilation included. Every model-store load and serve refit pays it.
const core::CrossArchPredictor& paper_predictor() {
  static const core::CrossArchPredictor predictor = [] {
    const auto ds = core::build_dataset(run_campaign(apps(), systems(), sim::CampaignOptions{},
                                                     &ThreadPool::shared()));
    core::CrossArchPredictor::Options options;
    options.gbt.n_rounds = 200;
    options.gbt.max_depth = 7;
    core::CrossArchPredictor p(options);
    p.train(ds, {}, &ThreadPool::shared());
    return p;
  }();
  return predictor;
}

void BM_GbtTextRoundTrip(benchmark::State& state) {
  const auto& predictor = paper_predictor();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string text = predictor.serialize_text();
    bytes += static_cast<std::int64_t>(text.size());
    benchmark::DoNotOptimize(core::CrossArchPredictor::from_text(text).trained());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_GbtTextRoundTrip)->Unit(benchmark::kMillisecond);

// The serve hot path: one row through the thread-local-scratch overload,
// asserting the steady state allocates nothing.
void BM_GbtPredictRowServe(benchmark::State& state) {
  const auto compiled = ml::CompiledEnsemble::compile(predict_gbt_model());
  const auto& f = FitFixture::get();
  std::vector<double> out(compiled.n_outputs());
  // Warm the thread-local scratch so the timed loop is steady state.
  compiled.predict_row(f.x.row(0), out);
  bool allocated = false;
  for (auto _ : state) {
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    compiled.predict_row(f.x.row(0), out);
    benchmark::DoNotOptimize(out.data());
    allocated |= g_alloc_count.load(std::memory_order_relaxed) != before;
  }
  if (allocated) state.SkipWithError("predict_row allocated on the hot path");
}
BENCHMARK(BM_GbtPredictRowServe);

const ml::RandomForest& predict_forest_model() {
  static const ml::RandomForest model = [] {
    const auto& f = FitFixture::get();
    ml::ForestOptions options;
    options.n_trees = 25;
    // Hist-grown: at most max_bins cuts per feature, so the narrow pool.
    options.method = ml::TreeMethod::kHist;
    ml::RandomForest m(options);
    m.fit(f.x, f.y);
    return m;
  }();
  return model;
}

void BM_ForestPredictRef(benchmark::State& state) {
  const auto& model = predict_forest_model();
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_ForestPredictRef)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ForestPredictCompiled(benchmark::State& state) {
  const auto compiled = ml::CompiledEnsemble::compile(predict_forest_model());
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_ForestPredictCompiled)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::ForestOptions options;
  options.n_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest model(options);
    model.fit(f.x, f.y);
    benchmark::DoNotOptimize(model.fitted());
  }
}
BENCHMARK(BM_ForestFit)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

// Forest split-search comparison: exact pre-sorted sweeps vs histogram
// bins over one shared BinnedMatrix (the kHist payoff at forest scale).
void forest_fit_method(benchmark::State& state, ml::TreeMethod method) {
  const auto& f = MethodFixture::get();
  ml::ForestOptions options;
  options.n_trees = 25;
  options.method = method;
  for (auto _ : state) {
    ml::RandomForest model(options);
    model.fit(f.x, f.y, &ThreadPool::shared());
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetItemsProcessed(state.iterations() * options.n_trees);
}

void BM_ForestFitExact(benchmark::State& state) {
  forest_fit_method(state, ml::TreeMethod::kExact);
}
BENCHMARK(BM_ForestFitExact)->Unit(benchmark::kMillisecond);

void BM_ForestFitHist(benchmark::State& state) {
  forest_fit_method(state, ml::TreeMethod::kHist);
}
BENCHMARK(BM_ForestFitHist)->Unit(benchmark::kMillisecond);

// --------------------------------------------------- serve request path ----
// The two halves of a served request on the paper model: parsing a
// predict line (the JSON shape perfbench's serve_mixed sends, ~830 bytes)
// and ServeCore::handle_requests on a batch of parsed predicts, inline
// (no pool), as the daemon's batcher calls it.

/// A predict line for `p`, field for field what perfbench sends.
std::string predict_line(const sim::RunProfile& p, std::size_t id) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "predict");
  // Built in place: GCC 12 reports a false -Werror=restrict on
  // `"p" + std::to_string(id)` in Release.
  char id_text[24] = {'p'};
  const char* id_end = std::to_chars(id_text + 1, std::end(id_text), id).ptr;
  w.field("id", std::string_view(id_text, static_cast<std::size_t>(id_end - id_text)));
  w.begin_object("profile");
  w.field("app", p.app);
  w.field("system", arch::to_string(p.system));
  w.field("scale", workload::to_string(p.config.scale_class));
  w.field("nodes", p.config.nodes);
  w.field("ranks", p.config.ranks);
  w.field("cores", p.config.cores);
  w.field("gpus", p.config.gpus);
  w.field("device", arch::to_string(p.device));
  w.field("input_index", p.input_index);
  w.field("input_scale", p.input_scale);
  w.field("time_s", p.time_s);
  w.begin_object("counters");
  for (const arch::CounterKind kind : arch::kAllCounterKinds) {
    w.field(arch::to_string(kind), sim::get(p.counters, kind));
  }
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

/// 64 predict lines over distinct apps, inputs and systems.
const std::vector<std::string>& serve_lines() {
  static const std::vector<std::string> lines = [] {
    const sim::Profiler profiler(7);
    std::vector<std::string> out;
    for (const workload::AppSignature& sig : apps().all()) {
      for (const auto& input : workload::make_inputs(sig, 1, 7)) {
        for (const arch::SystemId sys : arch::kAllSystems) {
          if (out.size() == 64) return out;
          out.push_back(predict_line(
              profiler.profile(sig, input, workload::ScaleClass::kOneNode,
                               systems().get(sys)),
              out.size()));
        }
      }
    }
    return out;
  }();
  return lines;
}

void BM_ServeParseRequest(benchmark::State& state) {
  const std::string& line = serve_lines().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::parse_request(line).profile.counters.data());
  }
  state.counters["line_bytes"] = static_cast<double>(line.size());
}
BENCHMARK(BM_ServeParseRequest);

/// A ServeCore serving the paper model from a scratch state directory,
/// removed at exit.
struct ServeFixture {
  std::filesystem::path dir;
  std::unique_ptr<serve::ServeCore> core;

  ServeFixture() {
    dir = std::filesystem::temp_directory_path() /
          ("mphpc_bench_serve_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    serve::ServeOptions options;
    options.state_dir = dir.string();
    options.model_path = (dir / "model.txt").string();
    options.refit_every = 0;
    paper_predictor().save(options.model_path);
    core = std::make_unique<serve::ServeCore>(options);
  }
  ~ServeFixture() {
    core.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  static ServeFixture& get() {
    static ServeFixture f;
    return f;
  }
};

void BM_ServeHandleBatch(benchmark::State& state) {
  serve::ServeCore& core = *ServeFixture::get().core;
  std::vector<serve::Request> batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.push_back(serve::parse_request(serve_lines()[static_cast<std::size_t>(i)]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.handle_requests(batch, nullptr).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServeHandleBatch)->Arg(1)->Arg(64)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ assignment-path micro ----
// One Model-based assign() per queued job against an empty cluster: the
// per-job machine order is either memoized once by prime() (what the
// simulation engine now does) or re-derived on every call.

/// `n` jobs sampled from a small campaign's predictions; the campaign
/// and model are built once per process.
std::vector<sched::Job> sampled_jobs(std::size_t n) {
  struct Source {
    core::Dataset ds;
    ml::Matrix predictions;
  };
  static const Source source = [] {
    sim::CampaignOptions options;
    options.inputs_per_app = 4;
    auto ds = core::build_dataset(run_campaign(apps(), systems(), options));
    core::CrossArchPredictor::Options popt;
    popt.gbt.n_rounds = 30;
    popt.gbt.max_depth = 4;
    core::CrossArchPredictor predictor(popt);
    predictor.train(ds);
    auto predictions = predictor.predict(ds.features());
    return Source{std::move(ds), std::move(predictions)};
  }();
  return sched::sample_jobs(source.ds, source.predictions, apps(), n, 3);
}

struct SchedFixture {
  std::vector<sched::Job> jobs;
  std::vector<sched::Machine> machines;

  static const SchedFixture& get() {
    static const SchedFixture f{sampled_jobs(4096), sched::default_cluster(systems())};
    return f;
  }
};

void assign_micro(benchmark::State& state, bool primed) {
  const auto& f = SchedFixture::get();
  std::array<int, arch::kNumSystems> free_nodes{};
  for (const auto& m : f.machines) {
    free_nodes[static_cast<std::size_t>(m.id)] = m.total_nodes;
  }
  const sched::ClusterView view(f.machines, free_nodes);
  sched::ModelBasedAssigner assigner;
  if (primed) assigner.prime(f.jobs);
  for (auto _ : state) {
    for (const auto& job : f.jobs) {
      benchmark::DoNotOptimize(assigner.assign(job, 0, view));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.jobs.size()));
}

void BM_AssignModelBased(benchmark::State& state) { assign_micro(state, false); }
BENCHMARK(BM_AssignModelBased)->Unit(benchmark::kMicrosecond);

void BM_AssignModelBasedPrimed(benchmark::State& state) { assign_micro(state, true); }
BENCHMARK(BM_AssignModelBasedPrimed)->Unit(benchmark::kMicrosecond);

void BM_SchedulerSimulate(benchmark::State& state) {
  const auto jobs = sampled_jobs(static_cast<std::size_t>(state.range(0)));
  const auto machines = sched::default_cluster(systems());
  for (auto _ : state) {
    sched::ModelBasedAssigner assigner;
    benchmark::DoNotOptimize(sched::simulate(jobs, machines, assigner).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerSimulate)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

// EASY backfill under the five Fig. 7/8 strategies. Round-Robin blocks
// its head on the head's own full machine while the other machines keep
// free nodes, so it only stays within a small factor of Model-based when
// backfill is bounded by its target machine's free nodes rather than by
// the cluster-wide free maximum. Round-Robin, Model-based and Oracle step
// over candidates that cannot end before the head's shadow time without
// assigning them. Random and User+RR pass over the same candidates, and
// those too wide for their lane, and replay the skipped calls by rank
// count; Random also needs Rng::discard's jump-ahead to stay within a
// small factor of Model-based.
template <typename MakeAssigner>
void BM_SimulateBackfill(benchmark::State& state, MakeAssigner make_assigner) {
  static const auto jobs = sampled_jobs(20000);
  const auto machines = sched::default_cluster(systems());
  for (auto _ : state) {
    auto assigner = make_assigner();
    benchmark::DoNotOptimize(sched::simulate(jobs, machines, assigner).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK_CAPTURE(BM_SimulateBackfill, rr, [] { return sched::RoundRobinAssigner(); })
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulateBackfill, random, [] { return sched::RandomAssigner(11); })
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulateBackfill, user_rr,
                  [] { return sched::UserRoundRobinAssigner(); })
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulateBackfill, model, [] { return sched::ModelBasedAssigner(); })
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulateBackfill, oracle, [] { return sched::OracleAssigner(); })
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
