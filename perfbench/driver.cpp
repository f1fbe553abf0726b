// perfbench_driver — runs one perfbench workload and prints its report.
//
//   perfbench_driver --workload offline_paper|sched_fig78|serve_mixed
//                    --seed N --seconds S --trace 0|1 [--mphpc PATH]
//
// Prints a `build {...}` provenance line, then the report as the last
// line of stdout. Exit code 0 when every correctness check passed, 1 when
// one failed, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/json_writer.hpp"
#include "common/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload offline_paper|sched_fig78|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--mphpc PATH]\n",
               argv0);
  return 2;
}

void print_build_line() {
#if defined(__OPTIMIZE__)
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  mphpc::JsonWriter w;
  w.begin_object();
  w.field("compiler", __VERSION__);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("optimized", kOptimized);
  w.field("pool_threads", mphpc::ThreadPool::shared().size());
  w.end_object();
  std::printf("build %s\n", w.str().c_str());
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: WARNING: non-optimised build; timings are "
                         "not comparable\n");
  }
}

/// The traced run: every per-layer metric, whatever the workload. The
/// workload's own layers are traced at full size, the others on a probe of
/// the paper model; trace_overhead_pct is the own tracer's.
void run_traced(const perfbench::RunArgs& args, perfbench::Report& report) {
  const std::string dir = ".perfbench_work/trace-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const perfbench::TrainedModel model = perfbench::train_paper_model();
  const std::string model_path = dir + "/model.txt";
  model.predictor.save(model_path);
  const double pipeline =
      perfbench::trace_pipeline(args, args.workload == "offline_paper", model, report);
  const double sched =
      perfbench::trace_sched(args, args.workload == "sched_fig78", model, report);
  const double serve = perfbench::trace_serve(args, args.workload == "serve_mixed",
                                              model_path, dir + "/serve", report);
  report.add("common.pool_threads", static_cast<double>(mphpc::ThreadPool::shared().size()),
             "count");
  report.add("trace_overhead_pct",
             args.workload == "offline_paper" ? pipeline
             : args.workload == "sched_fig78" ? sched
                                              : serve,
             "%");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--mphpc") {
      args.mphpc = value;
    } else {
      return usage(argv[0]);
    }
  }
  const bool known = args.workload == "offline_paper" || args.workload == "sched_fig78" ||
                     args.workload == "serve_mixed";
  // Every traced run, and serve_mixed, start `mphpc serve` daemons.
  const bool needs_mphpc = args.trace || args.workload == "serve_mixed";
  if (!have_trace || !known || !(args.seconds > 0.0) || (needs_mphpc && args.mphpc.empty())) {
    return usage(argv[0]);
  }

  print_build_line();
  perfbench::Report report;
  try {
    if (args.trace) {
      run_traced(args, report);
    } else if (args.workload == "offline_paper") {
      perfbench::run_offline(args, report);
    } else if (args.workload == "sched_fig78") {
      perfbench::run_sched(args, report);
    } else {
      perfbench::run_serve(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
