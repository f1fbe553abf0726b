// Tests for src/sim: performance model invariants, counter synthesis,
// profiler determinism, campaign runner.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/system_catalog.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "sim/counter_synth.hpp"
#include "sim/perf_model.hpp"
#include "sim/profiler.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::sim {
namespace {

using arch::CounterKind;
using arch::Device;
using arch::SystemCatalog;
using arch::SystemId;
using workload::AppCatalog;
using workload::ScaleClass;

class PerfModelTest : public ::testing::Test {
 protected:
  AppCatalog apps_;
  SystemCatalog systems_;

  TimeBreakdown time_for(const char* app, const char* system, ScaleClass scale,
                         double input_scale = 1.0) const {
    const auto& sig = apps_.get(app);
    const auto rc = workload::make_run_config(sig, systems_.get(system), scale);
    return predict_time(sig, input_scale, rc, systems_.get(system));
  }
};

TEST_F(PerfModelTest, AllComponentsNonNegative) {
  for (const auto& app : apps_.all()) {
    for (const auto& sys : systems_.all()) {
      for (const ScaleClass scale : workload::kAllScaleClasses) {
        const auto rc = workload::make_run_config(app, sys, scale);
        const TimeBreakdown tb = predict_time(app, 1.0, rc, sys);
        EXPECT_GE(tb.compute_s, 0.0);
        EXPECT_GE(tb.memory_s, 0.0);
        EXPECT_GE(tb.branch_s, 0.0);
        EXPECT_GE(tb.gpu_s, 0.0);
        EXPECT_GE(tb.comm_s, 0.0);
        EXPECT_GE(tb.io_s, 0.0);
        EXPECT_GT(tb.total_s(), 0.0) << app.name << " on " << sys.name;
      }
    }
  }
}

TEST_F(PerfModelTest, TimeGrowsWithProblemScale) {
  for (const auto app : {"CoMD", "miniFE", "SW4lite"}) {
    const double t1 = time_for(app, "quartz", ScaleClass::kOneNode, 1.0).total_s();
    const double t4 = time_for(app, "quartz", ScaleClass::kOneNode, 4.0).total_s();
    EXPECT_GT(t4, t1) << app;
  }
}

TEST_F(PerfModelTest, OneNodeFasterThanOneCore) {
  for (const auto app : {"CoMD", "Laghos", "miniVite", "SWFFT"}) {
    const double core = time_for(app, "ruby", ScaleClass::kOneCore).total_s();
    const double node = time_for(app, "ruby", ScaleClass::kOneNode).total_s();
    EXPECT_LT(node, core) << app;
  }
}

TEST_F(PerfModelTest, GpuAppsBenefitFromGpuSystemsAtNodeScale) {
  // DL apps should run much faster on a V100 node than a Broadwell node.
  for (const auto app : {"CANDLE", "DeepCam", "miniGAN"}) {
    const double cpu = time_for(app, "quartz", ScaleClass::kOneNode).total_s();
    const double gpu = time_for(app, "lassen", ScaleClass::kOneNode).total_s();
    EXPECT_GT(cpu / gpu, 1.5) << app;
  }
}

TEST_F(PerfModelTest, BranchyAppsPayDivergenceOnGpu) {
  // XSBench (branchy, latency-bound) should gain less from the GPU than
  // a dense DL workload does.
  const double xs_gain = time_for("XSBench", "quartz", ScaleClass::kOneNode).total_s() /
                         time_for("XSBench", "lassen", ScaleClass::kOneNode).total_s();
  const double dl_gain = time_for("DeepCam", "quartz", ScaleClass::kOneNode).total_s() /
                         time_for("DeepCam", "lassen", ScaleClass::kOneNode).total_s();
  EXPECT_GT(dl_gain, xs_gain);
}

TEST_F(PerfModelTest, VectorizableCodeLikesAvx512) {
  // SW4lite vectorizes well; a Ruby node (AVX-512, 56 cores, 280 GB/s)
  // beats a Quartz node (AVX2, 36 cores, 130 GB/s) by far more than the
  // clock ratio. (Single-core runs of this size are latency-bound, where
  // the two Xeons are similar.)
  const double quartz = time_for("SW4lite", "quartz", ScaleClass::kOneNode).total_s();
  const double ruby = time_for("SW4lite", "ruby", ScaleClass::kOneNode).total_s();
  EXPECT_GT(quartz / ruby, 1.3);
}

TEST_F(PerfModelTest, CommunicationAppearsOnlyInParallelRuns) {
  const auto single = time_for("Ember", "quartz", ScaleClass::kOneCore);
  EXPECT_EQ(single.comm_s, 0.0);
  const auto node = time_for("Ember", "quartz", ScaleClass::kOneNode);
  EXPECT_GT(node.comm_s, 0.0);
}

TEST_F(PerfModelTest, CommBoundAppCommDominatesAtTwoNodes) {
  const auto tb = time_for("Ember", "quartz", ScaleClass::kTwoNodes);
  EXPECT_GT(tb.comm_s, tb.compute_s);
}

TEST_F(PerfModelTest, OffloadFractionOnlyOnGpuRuns) {
  const auto& comd = apps_.get("CoMD");
  const auto rc_gpu = workload::make_run_config(comd, systems_.get("lassen"),
                                                ScaleClass::kOneNode);
  EXPECT_GT(offload_fraction(comd, rc_gpu), 0.0);
  const auto rc_cpu = workload::make_run_config(comd, systems_.get("quartz"),
                                                ScaleClass::kOneNode);
  EXPECT_EQ(offload_fraction(comd, rc_cpu), 0.0);
}

TEST_F(PerfModelTest, TotalInstructionsScalesWithExponent) {
  const auto& app = apps_.get("Laghos");  // work_exponent 1.15
  const double w1 = total_instructions(app, 1.0);
  const double w2 = total_instructions(app, 2.0);
  EXPECT_NEAR(w2 / w1, std::pow(2.0, app.work_exponent), 1e-9);
}

TEST_F(PerfModelTest, MissRatesAreRates) {
  for (const auto& app : apps_.all()) {
    for (const auto& sys : systems_.all()) {
      const auto rc = workload::make_run_config(app, sys, ScaleClass::kOneNode);
      const MemoryBehavior m = cpu_memory_behavior(app, 1.0, rc, sys);
      for (const double rate : {m.l1_load_miss_rate, m.l1_store_miss_rate,
                                m.l2_load_miss_rate, m.l2_store_miss_rate}) {
        EXPECT_GE(rate, 0.0);
        EXPECT_LE(rate, 1.0);
      }
      EXPECT_GT(m.working_set_mib_per_rank, 0.0);
    }
  }
}

TEST_F(PerfModelTest, LowerLocalityMoreMisses) {
  const auto& xsbench = apps_.get("XSBench");   // locality 0.12
  const auto& nekbone = apps_.get("Nekbone");   // locality 0.78
  const auto& sys = systems_.get("quartz");
  const auto rc_x = workload::make_run_config(xsbench, sys, ScaleClass::kOneNode);
  const auto rc_n = workload::make_run_config(nekbone, sys, ScaleClass::kOneNode);
  const auto mx = cpu_memory_behavior(xsbench, 1.0, rc_x, sys);
  const auto mn = cpu_memory_behavior(nekbone, 1.0, rc_n, sys);
  EXPECT_GT(mx.l1_load_miss_rate, mn.l1_load_miss_rate);
  EXPECT_GT(mx.l2_load_miss_rate, mn.l2_load_miss_rate);
}

TEST_F(PerfModelTest, BiggerCachesFewerL2Misses) {
  // Corona's 256 MiB L3 should beat Quartz's 90 MiB for a mid-size set.
  const auto& app = apps_.get("miniFE");
  const auto rc_q = workload::make_run_config(app, systems_.get("quartz"),
                                              ScaleClass::kOneNode);
  const auto rc_c = workload::make_run_config(app, systems_.get("corona"),
                                              ScaleClass::kOneNode);
  const auto mq = cpu_memory_behavior(app, 1.0, rc_q, systems_.get("quartz"));
  const auto mc = cpu_memory_behavior(app, 1.0, rc_c, systems_.get("corona"));
  EXPECT_GT(mq.l2_load_miss_rate, mc.l2_load_miss_rate);
}

TEST_F(PerfModelTest, RejectsBadArguments) {
  const auto& app = apps_.get("CoMD");
  const auto& sys = systems_.get("quartz");
  auto rc = workload::make_run_config(app, sys, ScaleClass::kOneNode);
  EXPECT_THROW(predict_time(app, 0.0, rc, sys), mphpc::ContractViolation);
  rc.ranks = 0;
  EXPECT_THROW(predict_time(app, 1.0, rc, sys), mphpc::ContractViolation);
}

// ------------------------------------------------------------- counters ----

class CounterSynthTest : public ::testing::Test {
 protected:
  AppCatalog apps_;
  SystemCatalog systems_;
};

TEST_F(CounterSynthTest, NoiseSigmaOrdering) {
  // CPU PAPI < CUPTI < rocprofiler (the Fig. 3 mechanism).
  const double cpu = counter_noise_sigma(SystemId::kQuartz, Device::kCpu);
  const double cupti = counter_noise_sigma(SystemId::kLassen, Device::kGpu);
  const double rocm = counter_noise_sigma(SystemId::kCorona, Device::kGpu);
  EXPECT_LT(cpu, cupti);
  EXPECT_LT(cupti, rocm);
}

TEST_F(CounterSynthTest, GpuRunsRecordGpuCounters) {
  const auto& comd = apps_.get("CoMD");
  const auto rc = workload::make_run_config(comd, systems_.get("lassen"),
                                            ScaleClass::kOneNode);
  EXPECT_EQ(counter_device(rc), Device::kGpu);
  const auto rc_cpu = workload::make_run_config(apps_.get("SW4lite"),
                                                systems_.get("lassen"),
                                                ScaleClass::kOneNode);
  EXPECT_EQ(counter_device(rc_cpu), Device::kCpu);
}

TEST_F(CounterSynthTest, CountersReflectInstructionMix) {
  const auto& app = apps_.get("SW4lite");
  const auto& sys = systems_.get("quartz");
  const auto rc = workload::make_run_config(app, sys, ScaleClass::kOneNode);
  const auto tb = predict_time(app, 1.0, rc, sys);
  Rng rng(1);
  const CounterValues v = synthesize_counters(app, 1.0, rc, sys, tb, rng);
  const double total = get(v, CounterKind::kTotalInstructions);
  ASSERT_GT(total, 0.0);
  // Ratios should be close to the signature mix (within counter jitter).
  EXPECT_NEAR(get(v, CounterKind::kBranchInstructions) / total, app.cpu_mix.branch,
              0.01);
  EXPECT_NEAR(get(v, CounterKind::kLoadInstructions) / total, app.cpu_mix.load, 0.04);
  EXPECT_NEAR(get(v, CounterKind::kDpFpInstructions) / total, app.cpu_mix.dp_fp, 0.03);
}

TEST_F(CounterSynthTest, MissesAreOrderedByLevel) {
  const auto& app = apps_.get("miniFE");
  const auto& sys = systems_.get("quartz");
  const auto rc = workload::make_run_config(app, sys, ScaleClass::kOneNode);
  const auto tb = predict_time(app, 1.0, rc, sys);
  Rng rng(2);
  const CounterValues v = synthesize_counters(app, 1.0, rc, sys, tb, rng);
  EXPECT_GT(get(v, CounterKind::kL1LoadMisses), get(v, CounterKind::kL2LoadMisses));
  EXPECT_LT(get(v, CounterKind::kL1LoadMisses),
            get(v, CounterKind::kLoadInstructions));
}

TEST_F(CounterSynthTest, CountersNonNegativeAndKeyCountersPositive) {
  // FP-class counters may legitimately read ~0 for apps that execute no
  // instructions of that class; structural counters must be positive.
  for (const auto& app : apps_.all()) {
    for (const auto& sys : systems_.all()) {
      const auto rc = workload::make_run_config(app, sys, ScaleClass::kTwoNodes);
      const auto tb = predict_time(app, 2.0, rc, sys);
      Rng rng(3);
      const CounterValues v = synthesize_counters(app, 2.0, rc, sys, tb, rng);
      for (const double value : v) EXPECT_GE(value, 0.0) << app.name;
      for (const CounterKind key :
           {CounterKind::kTotalInstructions, CounterKind::kLoadInstructions,
            CounterKind::kBranchInstructions, CounterKind::kTotalCycles,
            CounterKind::kPageTableSize, CounterKind::kIoBytesRead}) {
        EXPECT_GT(get(v, key), 0.0) << app.name << " " << to_string(key);
      }
    }
  }
}

// ------------------------------------------------------------- profiler ----

class ProfilerTest : public ::testing::Test {
 protected:
  AppCatalog apps_;
  SystemCatalog systems_;
};

TEST_F(ProfilerTest, Deterministic) {
  const Profiler profiler(77);
  const auto& app = apps_.get("AMG");
  const auto inputs = workload::make_inputs(app, 2, 77);
  const RunProfile a =
      profiler.profile(app, inputs[0], ScaleClass::kOneNode, systems_.get("corona"));
  const RunProfile b =
      profiler.profile(app, inputs[0], ScaleClass::kOneNode, systems_.get("corona"));
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.counters, b.counters);
}

TEST_F(ProfilerTest, DifferentSeedsGiveDifferentNoise) {
  const auto& app = apps_.get("AMG");
  const auto inputs = workload::make_inputs(app, 1, 77);
  const RunProfile a = Profiler(1).profile(app, inputs[0], ScaleClass::kOneNode,
                                           systems_.get("quartz"));
  const RunProfile b = Profiler(2).profile(app, inputs[0], ScaleClass::kOneNode,
                                           systems_.get("quartz"));
  EXPECT_NE(a.time_s, b.time_s);
  // The underlying model time is noise-free and identical.
  EXPECT_EQ(a.model_time_s, b.model_time_s);
}

TEST_F(ProfilerTest, MeasuredTimeNearModelTime) {
  const Profiler profiler(5);
  const auto& app = apps_.get("Nekbone");  // low-noise app
  const auto inputs = workload::make_inputs(app, 5, 5);
  for (const auto& input : inputs) {
    const RunProfile p =
        profiler.profile(app, input, ScaleClass::kOneNode, systems_.get("ruby"));
    EXPECT_GT(p.time_s, p.model_time_s * 0.85);
    EXPECT_LT(p.time_s, p.model_time_s * 1.15);
  }
}

TEST_F(ProfilerTest, IdFormat) {
  const Profiler profiler(5);
  const auto& app = apps_.get("CoMD");
  const auto inputs = workload::make_inputs(app, 1, 5);
  const RunProfile p =
      profiler.profile(app, inputs[0], ScaleClass::kTwoNodes, systems_.get("lassen"));
  EXPECT_EQ(p.id(), "CoMD/i00@lassen/2node");
}

// --------------------------------------------------------------- runner ----

TEST(Runner, RunInputCoversAllSystemsAndScales) {
  const AppCatalog apps;
  const SystemCatalog systems;
  const Profiler profiler(11);
  const auto& app = apps.get("SWFFT");
  const auto inputs = workload::make_inputs(app, 1, 11);
  const auto profiles = run_input(app, inputs[0], systems, profiler);
  ASSERT_EQ(profiles.size(), arch::kNumSystems * workload::kNumScaleClasses);
  // System-major, scale-minor order.
  EXPECT_EQ(profiles[0].system, SystemId::kQuartz);
  EXPECT_EQ(profiles[0].config.scale_class, ScaleClass::kOneCore);
  EXPECT_EQ(profiles[11].system, SystemId::kCorona);
  EXPECT_EQ(profiles[11].config.scale_class, ScaleClass::kTwoNodes);
}

TEST(Runner, CampaignShapeMatchesPaper) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 2;
  const auto profiles = run_campaign(apps, systems, options);
  EXPECT_EQ(profiles.size(), 20u * 2u * 4u * 3u);
}

TEST(Runner, CampaignParallelMatchesSerial) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 2;
  const auto serial = run_campaign(apps, systems, options);
  ThreadPool pool(4);
  const auto parallel = run_campaign(apps, systems, options, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].time_s, parallel[i].time_s);
    EXPECT_EQ(serial[i].app, parallel[i].app);
    EXPECT_EQ(serial[i].counters, parallel[i].counters);
  }
}

// ----------------------------------------------------- campaign shards ----

/// Exact per-profile equality (bit-identical doubles).
void expect_profiles_identical(const std::vector<RunProfile>& a,
                               const std::vector<RunProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].input_index, b[i].input_index);
    EXPECT_EQ(a[i].input_scale, b[i].input_scale);
    EXPECT_EQ(a[i].system, b[i].system);
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].config.scale_class, b[i].config.scale_class);
    EXPECT_EQ(a[i].config.nodes, b[i].config.nodes);
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].model_time_s, b[i].model_time_s);
    EXPECT_EQ(a[i].breakdown.compute_s, b[i].breakdown.compute_s);
    EXPECT_EQ(a[i].breakdown.comm_s, b[i].breakdown.comm_s);
    EXPECT_EQ(a[i].counters, b[i].counters);
  }
}

class CampaignCheckpointTest : public ::testing::Test {
 protected:
  std::filesystem::path dir_;

  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "mphpc_campaign_ckpt" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(CampaignCheckpointTest, CacheReproducesProfilesBitIdentically) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions plain;
  plain.inputs_per_app = 2;
  const auto reference = run_campaign(apps, systems, plain);

  CampaignOptions cached = plain;
  cached.checkpoint_dir = dir_.string();
  const auto first = run_campaign(apps, systems, cached);   // writes shards
  const auto second = run_campaign(apps, systems, cached);  // reads shards
  expect_profiles_identical(reference, first);
  expect_profiles_identical(reference, second);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "manifest.txt"));
}

TEST_F(CampaignCheckpointTest, SecondRunActuallyReadsShards) {
  // Prove the reuse path is taken: tamper with one cached value and watch
  // it propagate into the next run's output. The manifest is reduced to
  // its header first (as an interrupted run leaves it), because a
  // recorded content hash would — correctly — reject the edited shard.
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 1;
  options.checkpoint_dir = dir_.string();
  const auto first = run_campaign(apps, systems, options);

  // Patch one shard: change its first profile's time field to 999.25
  // (parseable, positive, and unmistakable).
  std::filesystem::path shard;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".shard") {
      shard = entry.path();
      break;
    }
  }
  ASSERT_FALSE(shard.empty());
  std::vector<std::string> lines;
  {
    std::ifstream in(shard);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  for (auto& line : lines) {
    if (line.rfind("p ", 0) == 0) {
      std::istringstream ss(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      ASSERT_GE(tokens.size(), 11u);
      tokens[10] = "999.25";  // time_s
      line.clear();
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        line += (t == 0 ? "" : " ") + tokens[t];
      }
      break;  // first profile of this shard only
    }
  }
  std::string patched;
  for (const auto& line : lines) patched += line + "\n";
  { std::ofstream out(shard); out << patched; }

  // Keep only the manifest header: shards without a recorded hash are
  // accepted on parse alone (the partial-campaign resume path).
  {
    std::ifstream in(dir_ / "manifest.txt");
    std::string line;
    std::string header;
    for (int n = 0; n < 3 && std::getline(in, line); ++n) header += line + "\n";
    in.close();
    std::ofstream out(dir_ / "manifest.txt");
    out << header;
  }

  const auto second = run_campaign(apps, systems, options);
  bool saw_patched = false;
  for (const auto& profile : second) saw_patched |= profile.time_s == 999.25;
  EXPECT_TRUE(saw_patched);  // the cache, not the profiler, produced this
}

TEST_F(CampaignCheckpointTest, OutOfIntRangeResourceFieldIsReProfiled) {
  // A nodes field of 2^32 + 1 must not wrap to 1 node on the way into an
  // int: the shard fails to parse and is re-profiled. The patched profile
  // runs on more than one node, so a wrapped value would differ from it.
  // As in SecondRunActuallyReadsShards, the manifest keeps only its
  // header, so the shard is not rejected by its recorded hash first.
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 1;
  options.checkpoint_dir = dir_.string();
  const auto first = run_campaign(apps, systems, options);

  bool patched = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (patched || entry.path().extension() != ".shard") continue;
    std::vector<std::string> lines;
    {
      std::ifstream in(entry.path());
      std::string line;
      while (std::getline(in, line)) lines.push_back(line);
    }
    for (auto& line : lines) {
      if (line.rfind("p ", 0) != 0) continue;
      std::istringstream ss(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      ASSERT_GE(tokens.size(), 9u);
      if (tokens[5] == "1") continue;  // a wrap to 1 would go unseen
      tokens[5] = "4294967297";          // nodes
      line.clear();
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        line += (t == 0 ? "" : " ") + tokens[t];
      }
      patched = true;
      break;
    }
    if (!patched) continue;
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    std::ofstream out(entry.path());
    out << text;
  }
  ASSERT_TRUE(patched) << "no cached profile runs on more than one node";
  {
    std::ifstream in(dir_ / "manifest.txt");
    std::string line;
    std::string header;
    for (int n = 0; n < 3 && std::getline(in, line); ++n) header += line + "\n";
    in.close();
    std::ofstream out(dir_ / "manifest.txt");
    out << header;
  }

  const auto second = run_campaign(apps, systems, options);
  expect_profiles_identical(first, second);
}

TEST_F(CampaignCheckpointTest, HashMismatchedShardIsReProfiled) {
  // A shard whose content no longer matches the hash recorded in the
  // manifest must be re-profiled, even though it still parses cleanly.
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 1;
  options.checkpoint_dir = dir_.string();
  const auto first = run_campaign(apps, systems, options);

  std::filesystem::path shard;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".shard") {
      shard = entry.path();
      break;
    }
  }
  ASSERT_FALSE(shard.empty());
  std::vector<std::string> lines;
  {
    std::ifstream in(shard);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  for (auto& line : lines) {
    if (line.rfind("p ", 0) == 0) {
      std::istringstream ss(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      ASSERT_GE(tokens.size(), 11u);
      tokens[10] = "999.25";  // parseable and positive — only the hash catches it
      line.clear();
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        line += (t == 0 ? "" : " ") + tokens[t];
      }
      break;
    }
  }
  std::string patched;
  for (const auto& line : lines) patched += line + "\n";
  { std::ofstream out(shard); out << patched; }

  const auto second = run_campaign(apps, systems, options);
  for (const auto& profile : second) EXPECT_NE(profile.time_s, 999.25);
  expect_profiles_identical(first, second);
}

TEST_F(CampaignCheckpointTest, CorruptShardIsReProfiledNotTrusted) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 1;
  options.checkpoint_dir = dir_.string();
  const auto first = run_campaign(apps, systems, options);

  // Truncate every shard; the next run must silently re-profile and still
  // return the exact same results.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".shard") {
      std::ofstream out(entry.path());
      out << "mphpc-shard v1\ngarbage\n";
    }
  }
  const auto second = run_campaign(apps, systems, options);
  expect_profiles_identical(first, second);
}

TEST_F(CampaignCheckpointTest, ManifestMismatchInvalidatesCache) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 1;
  options.seed = 5;
  options.checkpoint_dir = dir_.string();
  (void)run_campaign(apps, systems, options);

  // Different seed -> different campaign; stale shards must not be read.
  CampaignOptions changed = options;
  changed.seed = 6;
  const auto fresh = run_campaign(apps, systems, changed);
  CampaignOptions plain = changed;
  plain.checkpoint_dir.clear();
  const auto reference = run_campaign(apps, systems, plain);
  expect_profiles_identical(reference, fresh);

  // And the manifest now reflects the new campaign: a rerun of the *old*
  // campaign re-profiles rather than reading the new shards.
  const auto old_again = run_campaign(apps, systems, options);
  CampaignOptions old_plain = options;
  old_plain.checkpoint_dir.clear();
  expect_profiles_identical(run_campaign(apps, systems, old_plain), old_again);
}

TEST_F(CampaignCheckpointTest, ParallelCampaignUsesCacheIdentically) {
  const AppCatalog apps;
  const SystemCatalog systems;
  CampaignOptions options;
  options.inputs_per_app = 2;
  options.checkpoint_dir = dir_.string();
  const auto serial = run_campaign(apps, systems, options);
  ThreadPool pool(4);
  const auto parallel = run_campaign(apps, systems, options, &pool);
  expect_profiles_identical(serial, parallel);
}

TEST(Runner, DefaultCampaignMatchesPaperRowCount) {
  // 20 x 47 x 3 x 4 = 11,280 (paper reports 11,312; see DESIGN.md).
  const CampaignOptions options;
  EXPECT_EQ(20 * options.inputs_per_app * 3 * 4, 11280);
}

}  // namespace
}  // namespace mphpc::sim
