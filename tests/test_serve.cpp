// Tests for src/serve: the JSON parser, the wire protocol, drift
// detection, the crash-safe model store, and the ServeCore online
// service (refit/hot-swap, drift trip/recover, SIGKILL-and-restart).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "serve/drift.hpp"
#include "serve/fault_inject.hpp"
#include "serve/json.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::serve {
namespace {

// ------------------------------------------------------------ fixtures ----

struct SharedState {
  core::CrossArchPredictor predictor;
  std::string model_path;
  std::vector<sim::RunProfile> profiles;
};

/// One small trained model + a handful of profiles, built once for the
/// whole suite (and, crucially, before any fork() in the crash test).
const SharedState& shared_state() {
  static const SharedState state = [] {
    const workload::AppCatalog apps;
    const arch::SystemCatalog systems;
    sim::CampaignOptions campaign;
    campaign.inputs_per_app = 2;
    const auto dataset =
        core::build_dataset(sim::run_campaign(apps, systems, campaign));

    core::CrossArchPredictor::Options options;
    options.gbt.n_rounds = 20;
    options.gbt.max_depth = 3;
    SharedState s{core::CrossArchPredictor(options),
                  ::testing::TempDir() + "/serve_seed_model.txt",
                  {}};
    s.predictor.train(dataset);
    s.predictor.save(s.model_path);

    const sim::Profiler profiler(99);
    for (const auto* app : {"CoMD", "AMG", "XSBench"}) {
      const auto& sig = apps.get(app);
      const auto inputs = workload::make_inputs(sig, 2, 99);
      for (const auto* sys : {"quartz", "lassen"}) {
        for (const auto& input : inputs) {
          s.profiles.push_back(profiler.profile(
              sig, input, workload::ScaleClass::kOneNode, systems.get(sys)));
        }
      }
    }
    return s;
  }();
  return state;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/serve_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

ServeOptions test_options(const std::string& state_dir) {
  ServeOptions o;
  o.state_dir = state_dir;
  o.model_path = shared_state().model_path;
  o.drift.window = 8;
  // Shadow error for model-consistent feedback is |rpv - rpv/rpv[ref]|,
  // small but not zero; keep a wide hysteresis band so these tests probe
  // the state machine, not the model's self-consistency.
  o.drift.trip_mae = 2.0;
  o.drift.recover_mae = 0.75;
  o.refit_every = 8;
  o.min_refit_rows = 4;
  o.refit_rounds = 5;
  o.window_capacity = 64;
  // The legacy drift suite below probes the single global detector
  // (exact trip-on-window-fill timing); per-app quarantine would change
  // which samples reach the global window, so pin it off here and test
  // DriftMap semantics separately.
  o.drift_max_apps = 0;
  return o;
}

Request predict_request(const sim::RunProfile& profile, std::string id) {
  Request r;
  r.op = Op::kPredict;
  r.id = std::move(id);
  r.profile = profile;
  return r;
}

Request feedback_request(const sim::RunProfile& profile,
                         const core::SystemTimes& times, std::string id) {
  Request r;
  r.op = Op::kFeedback;
  r.id = std::move(id);
  r.profile = profile;
  r.times = times;
  return r;
}

/// Times consistent with what `model` predicts — near-zero drift error.
core::SystemTimes consistent_times(const core::CrossArchPredictor& model,
                                   const sim::RunProfile& profile) {
  const core::Rpv rpv = model.predict(profile);
  core::SystemTimes times{};
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) times[k] = 10.0 * rpv[k];
  return times;
}

/// Times no cross-architecture model would predict — huge drift error.
core::SystemTimes drifted_times() { return {1.0, 500.0, 1.0, 500.0}; }

// ---------------------------------------------------------------- json ----

TEST(ServeJson, ParsesScalarsAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a":1.5,"b":"x","c":[true,false,null],"d":{"e":-2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_EQ(v.find("b")->as_string(), "x");
  const auto& items = v.find("c")->items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(items[0].as_bool());
  EXPECT_FALSE(items[1].as_bool());
  EXPECT_TRUE(items[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("d")->find("e")->as_number(), -2000.0);
}

TEST(ServeJson, DecodesStringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"({"s":"a\"b\\c\n\tAé"})");
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(ServeJson, FindIsNullptrOnAbsentOrNonObject) {
  const JsonValue v = JsonValue::parse(R"({"a":1})");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.find("a")->find("anything"), nullptr);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), ParseError);
  EXPECT_THROW(JsonValue::parse("{"), ParseError);
  EXPECT_THROW(JsonValue::parse(R"({"a":})"), ParseError);
  EXPECT_THROW(JsonValue::parse(R"("unterminated)"), ParseError);
  EXPECT_THROW(JsonValue::parse("nul"), ParseError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), ParseError);
  EXPECT_THROW(JsonValue::parse("1 2"), ParseError);
  EXPECT_THROW(JsonValue::parse(R"({"a":1,})"), ParseError);
}

TEST(ServeJson, DepthCapStopsNestingBombs) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += '[';
  for (int i = 0; i < 200; ++i) bomb += ']';
  EXPECT_THROW(JsonValue::parse(bomb), ParseError);
}

TEST(ServeJson, AccessorsEnforceKind) {
  const JsonValue v = JsonValue::parse("42");
  EXPECT_THROW(v.as_string(), ContractViolation);
  EXPECT_THROW(v.as_bool(), ContractViolation);
  EXPECT_THROW(v.items(), ContractViolation);
}

// ------------------------------------------------------------ protocol ----

constexpr const char* kPredictLine =
    R"({"op":"predict","id":"p1","profile":{"app":"CoMD","system":"ruby",)"
    R"("scale":"2node","nodes":2,"ranks":72,"cores":72,"gpus":0,)"
    R"("device":"cpu","time_s":3.5,"input_index":1,"input_scale":2.0,)"
    R"("counters":{"total_instructions":1e9,"load_instructions":2e8,)"
    R"("total_cycles":3e9}}})";

TEST(ServeProtocol, ParsesPredictRequest) {
  const Request r = parse_request(kPredictLine);
  EXPECT_EQ(r.op, Op::kPredict);
  EXPECT_EQ(r.id, "p1");
  EXPECT_EQ(r.profile.app, "CoMD");
  EXPECT_EQ(r.profile.system, arch::SystemId::kRuby);
  EXPECT_EQ(r.profile.config.scale_class, workload::ScaleClass::kTwoNodes);
  EXPECT_EQ(r.profile.config.nodes, 2);
  EXPECT_EQ(r.profile.config.ranks, 72);
  EXPECT_DOUBLE_EQ(r.profile.time_s, 3.5);
  EXPECT_DOUBLE_EQ(
      sim::get(r.profile.counters, arch::CounterKind::kTotalInstructions), 1e9);
  EXPECT_DOUBLE_EQ(
      sim::get(r.profile.counters, arch::CounterKind::kLoadInstructions), 2e8);
}

TEST(ServeProtocol, ParsesFeedbackRequestWithAllFourTimes) {
  const Request r = parse_request(
      R"({"op":"feedback","id":"f1","profile":{"app":"x","system":"quartz",)"
      R"("counters":{"total_instructions":5}},)"
      R"("times":{"quartz":10,"ruby":8,"lassen":4,"corona":5}})");
  EXPECT_EQ(r.op, Op::kFeedback);
  EXPECT_DOUBLE_EQ(r.times[static_cast<std::size_t>(arch::SystemId::kQuartz)], 10.0);
  EXPECT_DOUBLE_EQ(r.times[static_cast<std::size_t>(arch::SystemId::kLassen)], 4.0);
}

TEST(ServeProtocol, ParsesBareOps) {
  EXPECT_EQ(parse_request(R"({"op":"stats"})").op, Op::kStats);
  EXPECT_EQ(parse_request(R"({"op":"shutdown","id":"q"})").op, Op::kShutdown);
}

TEST(ServeProtocol, RejectsInvalidRequests) {
  // Each line is malformed in exactly one way.
  const char* bad_lines[] = {
      R"([1,2,3])",                                     // not an object
      R"({"id":"x"})",                                  // missing op
      R"({"op":"frobnicate"})",                         // unknown op
      R"({"op":"predict"})",                            // missing profile
      R"({"op":"predict","profile":{"system":"quartz",
          "counters":{"total_instructions":1}}})",      // missing app
      R"({"op":"predict","profile":{"app":"a","system":"vulcan",
          "counters":{"total_instructions":1}}})",      // unknown system
      R"({"op":"predict","profile":{"app":"a","system":"quartz",
          "counters":{"total_instructions":0}}})",      // zero instructions
      R"({"op":"predict","profile":{"app":"a","system":"quartz",
          "counters":{"bogus_counter":1}}})",           // unknown counter
      R"({"op":"predict","profile":{"app":"a","system":"quartz","nodes":0,
          "counters":{"total_instructions":1}}})",      // nodes < 1
      R"({"op":"predict","profile":{"app":"a","system":"quartz","scale":"4node",
          "counters":{"total_instructions":1}}})",      // unknown scale
      R"({"op":"feedback","profile":{"app":"a","system":"quartz",
          "counters":{"total_instructions":1}},
          "times":{"quartz":1,"ruby":1,"lassen":1}})",  // missing corona
      R"({"op":"feedback","profile":{"app":"a","system":"quartz",
          "counters":{"total_instructions":1}},
          "times":{"quartz":1,"ruby":1,"lassen":1,"corona":0}})",  // t <= 0
      R"({"op":"feedback","profile":{"app":"a","system":"quartz",
          "counters":{"total_instructions":1}},
          "times":{"quartz":1,"quartz":2,"ruby":1,"lassen":1}})",
      // ^ duplicate key: 4 entries but corona's slot would stay 0
      R"({"op":"predict","profile":{"app":"a","system":"quartz","nodes":1e18,
          "counters":{"total_instructions":1}}})",      // nodes overflows int
      R"({"op":"predict","profile":{"app":"a","system":"quartz","nodes":1.5,
          "counters":{"total_instructions":1}}})",      // nodes not integral
  };
  for (const char* line : bad_lines) {
    EXPECT_THROW(parse_request(line), ParseError) << line;
  }
}

TEST(ServeProtocol, RepliesRoundTripThroughTheParser) {
  const core::Rpv rpv({1.0, 0.5, 2.0, 1.5});
  const JsonValue p = JsonValue::parse(predict_reply("p9", rpv, false));
  EXPECT_EQ(p.find("id")->as_string(), "p9");
  EXPECT_TRUE(p.find("ok")->as_bool());
  ASSERT_EQ(p.find("rpv")->items().size(), arch::kNumSystems);
  EXPECT_DOUBLE_EQ(p.find("rpv")->items()[1].as_number(), 0.5);
  EXPECT_EQ(p.find("fastest")->as_string(), "ruby");
  EXPECT_FALSE(p.find("fallback")->as_bool());

  const JsonValue f = JsonValue::parse(feedback_reply("f9", true, 0.25));
  EXPECT_TRUE(f.find("degraded")->as_bool());
  EXPECT_DOUBLE_EQ(f.find("rolling_mae")->as_number(), 0.25);

  const JsonValue e = JsonValue::parse(error_reply("", "bad_request", "no \"op\""));
  EXPECT_FALSE(e.find("ok")->as_bool());
  EXPECT_EQ(e.find("code")->as_string(), "bad_request");
  EXPECT_EQ(e.find("error")->as_string(), "no \"op\"");
}

// --------------------------------------------------------------- drift ----

TEST(ServeDrift, NoTransitionBeforeTheWindowFills) {
  DriftDetector d({/*window=*/4, /*trip_mae=*/0.5, /*recover_mae=*/0.2});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(d.observe(100.0), DriftDetector::State::kHealthy);
  }
  EXPECT_EQ(d.samples(), 3u);
  EXPECT_EQ(d.trips(), 0);
}

TEST(ServeDrift, TripsOnFullWindowAndRecoversWithHysteresis) {
  DriftDetector d({/*window=*/4, /*trip_mae=*/0.5, /*recover_mae=*/0.2});
  d.observe(1.0);
  d.observe(1.0);
  d.observe(1.0);
  EXPECT_EQ(d.observe(1.0), DriftDetector::State::kTripped);
  EXPECT_TRUE(d.tripped());
  EXPECT_EQ(d.trips(), 1);

  // Mean falls below trip but stays above recover: still tripped (no flap).
  d.observe(0.0);
  d.observe(0.0);
  EXPECT_NEAR(d.rolling_mae(), 0.5, 1e-12);
  EXPECT_TRUE(d.tripped());

  // Only dropping below the strictly-lower recover threshold heals it.
  d.observe(0.0);
  EXPECT_EQ(d.observe(0.0), DriftDetector::State::kHealthy);
  EXPECT_EQ(d.recoveries(), 1);
  EXPECT_EQ(d.trips(), 1);
}

TEST(ServeDrift, RollingMaeIsWindowMean) {
  DriftDetector d({/*window=*/3, /*trip_mae=*/10.0, /*recover_mae=*/1.0});
  d.observe(1.0);
  d.observe(2.0);
  EXPECT_NEAR(d.rolling_mae(), 1.5, 1e-12);
  d.observe(3.0);
  EXPECT_NEAR(d.rolling_mae(), 2.0, 1e-12);
  d.observe(7.0);  // evicts the 1.0
  EXPECT_NEAR(d.rolling_mae(), 4.0, 1e-12);
}

TEST(ServeDrift, RejectsBadConfigAndObservations) {
  EXPECT_THROW(DriftDetector({0, 0.5, 0.2}), ContractViolation);
  EXPECT_THROW(DriftDetector({4, 0.5, 0.5}), ContractViolation);   // no band
  EXPECT_THROW(DriftDetector({4, 0.5, 0.0}), ContractViolation);   // recover > 0
  DriftDetector d({4, 0.5, 0.2});
  EXPECT_THROW(d.observe(-1.0), ContractViolation);
  EXPECT_THROW(d.observe(std::numeric_limits<double>::infinity()),
               ContractViolation);
}

// ----------------------------------------------------------- drift map ----

DriftMapOptions drift_map_options() {
  DriftMapOptions o;
  o.global = {/*window=*/8, /*trip_mae=*/0.5, /*recover_mae=*/0.2};
  o.max_apps = 4;
  o.app_window = 4;
  return o;
}

TEST(ServeDriftMap, AppTripQuarantinesItFromGlobal) {
  DriftMap m(drift_map_options());
  // App A goes bad: its own window-4 detector trips on the 4th sample.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(m.observe("A", 1.0).app_tripped);
  }
  const auto trip = m.observe("A", 1.0);
  EXPECT_TRUE(trip.app_tripped);
  EXPECT_FALSE(trip.global_tripped);
  EXPECT_TRUE(m.degraded("A"));
  EXPECT_FALSE(m.degraded("B"));

  // Only the 3 pre-trip samples reached the global pool; once tripped,
  // A's garbage is quarantined and stops dragging the global mean up.
  EXPECT_EQ(m.global().samples(), 3u);
  (void)m.observe("A", 1.0);
  EXPECT_EQ(m.global().samples(), 3u);

  // B's clean stream fills the global window without tripping it.
  for (int i = 0; i < 8; ++i) (void)m.observe("B", 0.0);
  EXPECT_FALSE(m.global().tripped());
  EXPECT_FALSE(m.degraded("B"));
  EXPECT_TRUE(m.degraded("A"));
  EXPECT_EQ(m.apps_tripped(), 1u);
  ASSERT_EQ(m.tripped_apps().size(), 1u);
  EXPECT_EQ(m.tripped_apps()[0], "A");
}

TEST(ServeDriftMap, AppRecoversAndRejoinsGlobalPool) {
  DriftMap m(drift_map_options());
  for (int i = 0; i < 4; ++i) (void)m.observe("A", 1.0);
  ASSERT_TRUE(m.degraded("A"));

  // Clean samples wash A's window-4 detector below recover_mae.
  bool recovered = false;
  for (int i = 0; i < 4 && !recovered; ++i) {
    recovered = !m.observe("A", 0.0).app_tripped;
  }
  EXPECT_TRUE(recovered);
  EXPECT_FALSE(m.degraded("A"));
  EXPECT_EQ(m.apps_tripped(), 0u);

  // Recovered: A's samples feed the global detector again.
  const std::size_t before = m.global().samples();
  (void)m.observe("A", 0.0);
  EXPECT_EQ(m.global().samples(), before + 1);
}

TEST(ServeDriftMap, LruEvictsBeyondMaxApps) {
  DriftMapOptions o = drift_map_options();
  o.max_apps = 2;
  DriftMap m(o);
  for (int i = 0; i < 4; ++i) (void)m.observe("A", 1.0);  // A trips
  ASSERT_TRUE(m.app_tripped("A"));
  (void)m.observe("B", 0.0);
  (void)m.observe("C", 0.0);  // evicts A, the least recently used
  EXPECT_EQ(m.apps_tracked(), 2u);
  EXPECT_FALSE(m.app_tripped("A"));  // evicted: per-app state forgotten
  EXPECT_FALSE(m.degraded("A"));     // healthy global still covers it
}

TEST(ServeDriftMap, ZeroMaxAppsDegeneratesToGlobalDetector) {
  DriftMapOptions o = drift_map_options();
  o.max_apps = 0;
  DriftMap m(o);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(m.observe("A", 1.0).app_tripped);  // no per-app tracking
  }
  EXPECT_EQ(m.apps_tracked(), 0u);
  EXPECT_TRUE(m.global().tripped());  // every sample reached global
  EXPECT_TRUE(m.degraded("A"));
  EXPECT_TRUE(m.degraded("never-seen"));
}

TEST(ServeDriftMap, GlobalTripDegradesUnseenApps) {
  DriftMap m(drift_map_options());
  // Eight distinct apps each contribute one bad sample: no per-app
  // window (4) ever fills, but the global window (8) does — genuine
  // fleet-wide drift trips global and degrades everyone.
  for (int i = 0; i < 8; ++i) {
    (void)m.observe("app-" + std::to_string(i), 1.0);
  }
  EXPECT_TRUE(m.global().tripped());
  EXPECT_EQ(m.apps_tripped(), 0u);
  EXPECT_TRUE(m.degraded("someone-else"));
}

// --------------------------------------------------------- model store ----

TEST(ServeModelStore, RoundTripsModelGenerationAndFingerprint) {
  const std::string dir = fresh_dir("store_roundtrip");
  const ModelStore store(dir + "/model.txt");
  EXPECT_FALSE(store.load().has_value());  // nothing stored yet

  const auto& s = shared_state();
  const std::string fingerprint = store.store(s.predictor, 3);
  EXPECT_EQ(fingerprint.size(), 16u);  // fnv1a64 as fixed-width hex

  const auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 3);
  EXPECT_EQ(loaded->fingerprint, fingerprint);
  const auto& profile = s.profiles.front();
  const core::Rpv a = s.predictor.predict(profile);
  const core::Rpv b = loaded->predictor.predict(profile);
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_EQ(a[k], b[k]);
}

TEST(ServeModelStore, SameModelSameFingerprintNewModelNewFingerprint) {
  const std::string dir = fresh_dir("store_fp");
  const ModelStore store(dir + "/model.txt");
  const auto& s = shared_state();
  const std::string f1 = store.store(s.predictor, 0);
  const std::string f2 = store.store(s.predictor, 1);
  EXPECT_EQ(f1, f2);  // fingerprint hashes the model body, not the header

  core::CrossArchPredictor refitted = s.predictor;
  ml::Matrix x(4, core::FeaturePipeline::kNumFeatures);
  ml::Matrix y(4, arch::kNumSystems);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = 0.1 * static_cast<double>(r);
    for (std::size_t c = 0; c < y.cols(); ++c) y(r, c) = 1.0;
  }
  refitted.warm_refit(x, y, 2);
  EXPECT_NE(store.store(refitted, 2), f1);
}

TEST(ServeModelStore, RejectsTamperedFile) {
  const std::string dir = fresh_dir("store_tamper");
  const ModelStore store(dir + "/model.txt");
  store.store(shared_state().predictor, 1);

  std::string text;
  {
    std::ifstream in(store.path());
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one body byte: the header fingerprint must no longer verify.
  std::string corrupt = text;
  corrupt[corrupt.size() / 2] ^= 1;
  {
    std::ofstream out(store.path());
    out << corrupt;
  }
  EXPECT_THROW(store.load(), ParseError);

  // A foreign header is rejected before the body is even considered.
  {
    std::ofstream out(store.path());
    out << "some-other-format v9 1 abc\nbody\n";
  }
  EXPECT_THROW(store.load(), ParseError);
}

TEST(ServeModelStore, PeekHeaderMatchesLoadWithoutParsingBody) {
  const std::string dir = fresh_dir("store_peek");
  const ModelStore store(dir + "/model.txt");
  EXPECT_FALSE(store.peek_header().has_value());  // no store file yet

  const std::string fingerprint = store.store(shared_state().predictor, 7);
  const auto header = store.peek_header();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->generation, 7);
  EXPECT_EQ(header->fingerprint, fingerprint);

  {
    std::ofstream out(store.path());
    out << "not-a-store-header at all\nbody\n";
  }
  EXPECT_THROW(store.peek_header(), ParseError);
}

// --------------------------------------------------------- refit lease ----

TEST(ServeRefitLease, NullLeaseAlwaysAcquiresAndTouchesNothing) {
  RefitLease lease;
  EXPECT_FALSE(lease.enabled());
  EXPECT_TRUE(lease.try_acquire());
  lease.refresh();
  lease.release();
  EXPECT_EQ(lease.read_holder(), "");
}

TEST(ServeRefitLease, ExclusiveAcquireAndHandoffOnRelease) {
  const std::string path = fresh_dir("lease_excl") + "/refit.lease";
  RefitLease a(path, "worker-0", 30.0);
  RefitLease b(path, "worker-1", 30.0);
  EXPECT_TRUE(a.try_acquire());
  EXPECT_TRUE(a.held());
  EXPECT_TRUE(a.try_acquire());  // re-entrant for the holder
  EXPECT_FALSE(b.try_acquire());
  EXPECT_EQ(b.read_holder(), "worker-0");
  a.release();
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(b.try_acquire());
  EXPECT_EQ(a.read_holder(), "worker-1");
}

TEST(ServeRefitLease, TakesOverStaleHolderButRespectsFreshOne) {
  const std::string path = fresh_dir("lease_stale") + "/refit.lease";
  RefitLease dead(path, "dead-worker", 30.0);
  ASSERT_TRUE(dead.try_acquire());
  // Backdate the lease: a SIGKILLed holder never unlinks, so only its
  // mtime going stale gives the fleet the lease back.
  std::filesystem::last_write_time(
      path,
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  RefitLease live(path, "live-worker", 30.0);
  EXPECT_TRUE(live.try_acquire());
  EXPECT_EQ(live.read_holder(), "live-worker");

  // A fresh (recent-mtime) lease is respected.
  RefitLease contender(path, "contender", 30.0);
  EXPECT_FALSE(contender.try_acquire());
}

TEST(ServeRefitLease, RefreshForestallsTakeover) {
  const std::string path = fresh_dir("lease_refresh") + "/refit.lease";
  RefitLease holder(path, "holder", 30.0);
  ASSERT_TRUE(holder.try_acquire());
  std::filesystem::last_write_time(
      path,
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  holder.refresh();  // a long refit keeps bumping the mtime
  RefitLease contender(path, "contender", 30.0);
  EXPECT_FALSE(contender.try_acquire());
}

TEST(ServeRefitLease, MoveTransfersOwnership) {
  const std::string path = fresh_dir("lease_move") + "/refit.lease";
  RefitLease a(path, "mover", 30.0);
  ASSERT_TRUE(a.try_acquire());
  RefitLease b(std::move(a));
  EXPECT_TRUE(b.held());
  EXPECT_FALSE(a.held());  // moved-from: defined, lease-less state
  b.release();
  EXPECT_EQ(b.read_holder(), "");
}

// -------------------------------------------------------- intake queue ----

Pending make_pending(Op op, std::string id) {
  Pending p;
  p.request.op = op;
  p.request.id = std::move(id);
  return p;
}

TEST(ServeIntakeQueue, PriorityLaneDrainsBeforeFeedback) {
  IntakeQueue q(8);
  EXPECT_FALSE(q.push(make_pending(Op::kFeedback, "f1")).has_value());
  EXPECT_FALSE(q.push(make_pending(Op::kPredict, "p1")).has_value());
  EXPECT_FALSE(q.push(make_pending(Op::kFeedback, "f2")).has_value());
  EXPECT_FALSE(q.push(make_pending(Op::kStats, "s1")).has_value());
  EXPECT_EQ(q.predict_depth(), 2u);  // predict + stats share the lane
  EXPECT_EQ(q.feedback_depth(), 2u);

  std::vector<Pending> out;
  EXPECT_EQ(q.pop_batch(10, out), 4u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].request.id, "p1");
  EXPECT_EQ(out[1].request.id, "s1");
  EXPECT_EQ(out[2].request.id, "f1");
  EXPECT_EQ(out[3].request.id, "f2");
  EXPECT_TRUE(q.empty());
}

TEST(ServeIntakeQueue, ShedsOldestFeedbackBeforeAnyPredict) {
  IntakeQueue q(2);
  EXPECT_FALSE(q.push(make_pending(Op::kFeedback, "f1")).has_value());
  EXPECT_FALSE(q.push(make_pending(Op::kPredict, "p1")).has_value());
  // At capacity: the incoming predict displaces the oldest feedback.
  const auto victim = q.push(make_pending(Op::kPredict, "p2"));
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->request.id, "f1");
  EXPECT_EQ(victim->request.op, Op::kFeedback);
  // No feedback left to sacrifice: the oldest predict goes next.
  const auto victim2 = q.push(make_pending(Op::kPredict, "p3"));
  ASSERT_TRUE(victim2.has_value());
  EXPECT_EQ(victim2->request.id, "p1");
  EXPECT_EQ(q.size(), 2u);

  std::vector<Pending> out;
  EXPECT_EQ(q.pop_batch(10, out), 2u);
  EXPECT_EQ(out[0].request.id, "p2");
  EXPECT_EQ(out[1].request.id, "p3");
}

// ----------------------------------------------------------- serve core ----

TEST(ServeCoreTest, BootstrapSeedsStoreFromModelAtGenerationZero) {
  const std::string dir = fresh_dir("boot_seed");
  ServeCore core(test_options(dir));
  EXPECT_EQ(core.generation(), 0);
  EXPECT_TRUE(core.bootstrap_note().empty());
  EXPECT_FALSE(core.degraded());

  // SIGKILL before the first refit must already find a persisted model.
  const auto stored = ModelStore(dir + "/serve_model.txt").load();
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->generation, 0);
  EXPECT_EQ(stored->fingerprint, core.fingerprint());
}

TEST(ServeCoreTest, BootstrapPrefersStoreSurvivorOverSeedModel) {
  const std::string dir = fresh_dir("boot_survivor");
  std::string fingerprint_after_refit;
  {
    ServeCore core(test_options(dir));
    const auto& s = shared_state();
    for (std::size_t i = 0; i < core.options().refit_every; ++i) {
      const auto& p = s.profiles[i % s.profiles.size()];
      (void)core.handle_request(
          feedback_request(p, consistent_times(s.predictor, p), "f"));
    }
    ASSERT_TRUE(core.run_refit());
    EXPECT_EQ(core.generation(), 1);
    fingerprint_after_refit = core.fingerprint();
  }
  ServeCore restarted(test_options(dir));
  EXPECT_EQ(restarted.generation(), 1);
  EXPECT_EQ(restarted.fingerprint(), fingerprint_after_refit);
  EXPECT_TRUE(restarted.bootstrap_note().empty());
}

TEST(ServeCoreTest, BootstrapFallsBackToModelWhenStoreIsCorrupt) {
  const std::string dir = fresh_dir("boot_corrupt");
  { ServeCore seeded(test_options(dir)); }
  {
    std::ofstream out(dir + "/serve_model.txt");
    out << "mphpc-serve-model v1 7 0000000000000000\ngarbage body\n";
  }
  ServeCore core(test_options(dir));
  EXPECT_EQ(core.generation(), 0);  // reseeded from the --model file
  EXPECT_FALSE(core.bootstrap_note().empty());
  EXPECT_FALSE(core.degraded());
}

TEST(ServeCoreTest, BootstrapWithNoModelAnywhereThrows) {
  const std::string dir = fresh_dir("boot_nothing");
  ServeOptions options = test_options(dir);
  options.model_path.clear();
  EXPECT_THROW(ServeCore{options}, std::runtime_error);
}

TEST(ServeCoreTest, HandleLineServesPredictAndRejectsGarbage) {
  const std::string dir = fresh_dir("handle_line");
  ServeCore core(test_options(dir));
  const auto& s = shared_state();

  // A real predict line built from a profiled run.
  Request req = predict_request(s.profiles[0], "p1");
  const JsonValue good = JsonValue::parse(core.handle_request(req));
  EXPECT_TRUE(good.find("ok")->as_bool());
  EXPECT_EQ(good.find("id")->as_string(), "p1");
  ASSERT_EQ(good.find("rpv")->items().size(), arch::kNumSystems);
  EXPECT_FALSE(good.find("fallback")->as_bool());

  // Garbage must produce a structured reply, never a throw.
  const JsonValue bad = JsonValue::parse(core.handle_line("{{{nope"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("code")->as_string(), "bad_request");
  const JsonValue worse = JsonValue::parse(core.handle_line(
      R"({"op":"predict","profile":{"app":"a","system":"quartz",)"
      R"("counters":{"total_instructions":0}}})"));
  EXPECT_EQ(worse.find("code")->as_string(), "bad_request");
}

TEST(ServeCoreTest, BatchRepliesLineUpWithRequests) {
  const std::string dir = fresh_dir("batch");
  ServeCore core(test_options(dir));
  const auto& s = shared_state();

  std::vector<Request> requests;
  requests.push_back(predict_request(s.profiles[0], "a"));
  requests.push_back(predict_request(s.profiles[1], "b"));
  Request stats;
  stats.op = Op::kStats;
  stats.id = "c";
  requests.push_back(stats);
  requests.push_back(predict_request(s.profiles[2], "d"));

  ThreadPool pool(2);
  const auto replies = core.handle_requests(requests, &pool);
  ASSERT_EQ(replies.size(), requests.size());
  const char* expected_ids[] = {"a", "b", "c", "d"};
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const JsonValue v = JsonValue::parse(replies[i]);
    EXPECT_EQ(v.find("id")->as_string(), expected_ids[i]);
    EXPECT_TRUE(v.find("ok")->as_bool());
  }
  // Batched predictions are bit-identical to one-at-a-time ones.
  const JsonValue batched = JsonValue::parse(replies[0]);
  const JsonValue single =
      JsonValue::parse(core.handle_request(predict_request(s.profiles[0], "a")));
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
    EXPECT_EQ(batched.find("rpv")->items()[k].as_number(),
              single.find("rpv")->items()[k].as_number());
  }
}

TEST(ServeCoreTest, RefitPublishesNewGenerationAndPersistsFirst) {
  const std::string dir = fresh_dir("refit");
  ServeCore core(test_options(dir));
  const auto& s = shared_state();
  const std::string fingerprint_before = core.fingerprint();

  EXPECT_FALSE(core.refit_pending());
  for (std::size_t i = 0; i < core.options().refit_every; ++i) {
    const auto& p = s.profiles[i % s.profiles.size()];
    const JsonValue ack = JsonValue::parse(core.handle_request(
        feedback_request(p, consistent_times(s.predictor, p), "f")));
    EXPECT_TRUE(ack.find("ok")->as_bool());
    EXPECT_FALSE(ack.find("degraded")->as_bool());
  }
  EXPECT_TRUE(core.refit_pending());
  ASSERT_TRUE(core.run_refit());
  EXPECT_FALSE(core.refit_pending());  // the pending count was consumed

  EXPECT_EQ(core.generation(), 1);
  EXPECT_NE(core.fingerprint(), fingerprint_before);
  // The published generation is already on disk (persist-before-swap).
  const auto stored = ModelStore(dir + "/serve_model.txt").load();
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->generation, 1);
  EXPECT_EQ(stored->fingerprint, core.fingerprint());

  const JsonValue st = JsonValue::parse(core.stats_reply("s"));
  EXPECT_EQ(st.find("counters")->find("refits")->as_number(), 1.0);
  EXPECT_EQ(st.find("generation")->as_number(), 1.0);
}

TEST(ServeCoreTest, RefitCompactsInsteadOfGrowingWithoutBound) {
  const std::string dir = fresh_dir("compact");
  ServeOptions options = test_options(dir);
  options.refit_rounds = 10;
  options.max_model_rounds = 25;  // seed has 20: one warm refit would bust it
  options.cold_rounds = 12;
  ServeCore core(options);
  const auto& s = shared_state();
  for (std::size_t i = 0; i < core.options().refit_every; ++i) {
    const auto& p = s.profiles[i % s.profiles.size()];
    (void)core.handle_request(
        feedback_request(p, consistent_times(s.predictor, p), "f"));
  }
  ASSERT_TRUE(core.run_refit());
  const JsonValue st = JsonValue::parse(core.stats_reply("s"));
  // A compaction rebuilt from scratch at cold_rounds, not 20+10.
  EXPECT_EQ(st.find("model_rounds")->as_number(), 12.0);
  EXPECT_EQ(core.generation(), 1);
}

// The acceptance-gate drift test: deterministic injection of corrupted
// completions must trip the detector within the configured window, force
// degraded (neutral) predictions, freeze refits, and recover after clean
// data flushes the window.
TEST(ServeCoreTest, DriftInjectionTripsFreezesRefitsAndRecovers) {
  const std::string dir = fresh_dir("drift");
  ServeCore core(test_options(dir));
  const auto& s = shared_state();
  const std::size_t window = core.options().drift.window;

  // Phase 1: corrupted completions. The trip must land exactly when the
  // window fills (observations 1..window-1 cannot transition).
  bool tripped = false;
  for (std::size_t i = 0; i < window; ++i) {
    const auto& p = s.profiles[i % s.profiles.size()];
    const JsonValue ack = JsonValue::parse(core.handle_request(
        feedback_request(p, drifted_times(), "bad")));
    tripped = ack.find("degraded")->as_bool();
    EXPECT_EQ(tripped, i + 1 == window) << "observation " << i + 1;
  }
  ASSERT_TRUE(tripped);
  EXPECT_TRUE(core.degraded());

  // Degraded predictions are neutral and flagged as fallbacks.
  const JsonValue fallback = JsonValue::parse(
      core.handle_request(predict_request(s.profiles[0], "p")));
  EXPECT_TRUE(fallback.find("fallback")->as_bool());
  for (const JsonValue& r : fallback.find("rpv")->items()) {
    EXPECT_DOUBLE_EQ(r.as_number(), 1.0);
  }

  // Refits are frozen while tripped, however much feedback accumulated.
  EXPECT_FALSE(core.refit_pending());
  EXPECT_FALSE(core.run_refit());
  EXPECT_EQ(core.generation(), 0);

  // Phase 2: clean completions shadow-scored against the frozen model
  // wash the window and recover the service.
  bool recovered = false;
  for (std::size_t i = 0; i < window && !recovered; ++i) {
    const auto& p = s.profiles[i % s.profiles.size()];
    const JsonValue ack = JsonValue::parse(core.handle_request(
        feedback_request(p, consistent_times(s.predictor, p), "good")));
    recovered = !ack.find("degraded")->as_bool();
  }
  EXPECT_TRUE(recovered);
  EXPECT_FALSE(core.degraded());
  const JsonValue st = JsonValue::parse(core.stats_reply("s"));
  EXPECT_EQ(st.find("drift")->find("trips")->as_number(), 1.0);
  EXPECT_EQ(st.find("drift")->find("recoveries")->as_number(), 1.0);

  // Healthy again: predictions flow and refits may resume.
  const JsonValue ok = JsonValue::parse(
      core.handle_request(predict_request(s.profiles[0], "p2")));
  EXPECT_FALSE(ok.find("fallback")->as_bool());
}

// The acceptance-gate isolation test: poisoned feedback for one app
// degrades that app's predictions to neutral while another app keeps
// real model output and the fleet-wide guard stays healthy.
TEST(ServeCoreTest, PerAppDriftTripLeavesOtherAppsHealthy) {
  const std::string dir = fresh_dir("per_app_drift");
  ServeOptions options = test_options(dir);
  options.drift_max_apps = 8;
  options.drift_app_window = 4;
  ServeCore core(options);
  const auto& s = shared_state();

  // profiles are app-major: [0..3] CoMD, [4..7] AMG (see shared_state).
  const auto& comd = s.profiles[0];
  const auto& amg = s.profiles[4];
  ASSERT_NE(comd.app, amg.app);

  bool tripped = false;
  for (int i = 0; i < 4; ++i) {
    const JsonValue ack = JsonValue::parse(
        core.handle_request(feedback_request(comd, drifted_times(), "bad")));
    tripped = ack.find("degraded")->as_bool();
  }
  ASSERT_TRUE(tripped);
  EXPECT_FALSE(core.degraded());  // the global guard stayed healthy

  // CoMD predictions fall back to neutral...
  const JsonValue a =
      JsonValue::parse(core.handle_request(predict_request(comd, "pa")));
  EXPECT_TRUE(a.find("fallback")->as_bool());
  for (const JsonValue& r : a.find("rpv")->items()) {
    EXPECT_DOUBLE_EQ(r.as_number(), 1.0);
  }
  // ...while AMG still gets real model output.
  const JsonValue b =
      JsonValue::parse(core.handle_request(predict_request(amg, "pb")));
  EXPECT_FALSE(b.find("fallback")->as_bool());

  const JsonValue st = JsonValue::parse(core.stats_reply("s"));
  EXPECT_EQ(st.find("drift")->find("apps_tripped")->as_number(), 1.0);
  ASSERT_EQ(st.find("drift")->find("tripped_apps")->items().size(), 1u);
  EXPECT_EQ(st.find("drift")->find("tripped_apps")->items()[0].as_string(),
            comd.app);
  EXPECT_GE(st.find("counters")->find("app_fallbacks")->as_number(), 1.0);

  // Clean feedback washes CoMD's small window and un-degrades just it.
  bool recovered = false;
  for (int i = 0; i < 8 && !recovered; ++i) {
    const JsonValue ack = JsonValue::parse(core.handle_request(
        feedback_request(comd, consistent_times(s.predictor, comd), "good")));
    recovered = !ack.find("degraded")->as_bool();
  }
  EXPECT_TRUE(recovered);
  const JsonValue after =
      JsonValue::parse(core.handle_request(predict_request(comd, "pc")));
  EXPECT_FALSE(after.find("fallback")->as_bool());
}

// Two cores on one state dir model two supervised workers sharing the
// store: the leader publishes a refit, the follower converges on it.
TEST(ServeCoreTest, FollowerConvergesOnLeaderPublish) {
  const std::string dir = fresh_dir("follow");
  const auto& s = shared_state();
  ServeOptions leader_options = test_options(dir);
  leader_options.use_lease = true;
  ServeOptions follower_options = leader_options;
  follower_options.worker_id = 1;

  ServeCore leader(leader_options);
  ServeCore follower(follower_options);
  EXPECT_EQ(follower.generation(), 0);
  EXPECT_FALSE(follower.follow_store());  // nothing new to pick up yet

  for (std::size_t i = 0; i < leader.options().refit_every; ++i) {
    const auto& p = s.profiles[i % s.profiles.size()];
    (void)leader.handle_request(
        feedback_request(p, consistent_times(s.predictor, p), "f"));
  }
  ASSERT_TRUE(leader.run_refit());
  ASSERT_EQ(leader.generation(), 1);

  EXPECT_TRUE(follower.follow_store());
  EXPECT_EQ(follower.generation(), 1);
  EXPECT_EQ(follower.fingerprint(), leader.fingerprint());
  EXPECT_FALSE(follower.follow_store());  // already converged

  // The follower serves from the leader's model immediately, and its
  // stats account for the reload and the lease plumbing.
  const JsonValue reply = JsonValue::parse(
      follower.handle_request(predict_request(s.profiles[0], "p")));
  EXPECT_TRUE(reply.find("ok")->as_bool());
  const JsonValue st = JsonValue::parse(follower.stats_reply("s"));
  EXPECT_TRUE(st.find("refit_lease")->find("enabled")->as_bool());
  EXPECT_EQ(st.find("counters")->find("reloads")->as_number(), 1.0);

  // A draining follower must not roll the store back to its generation.
  follower.flush();
  const auto header = ModelStore(dir + "/serve_model.txt").peek_header();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->generation, 1);
}

TEST(ServeCoreTest, StatsReportFleetIdentityAndLanes) {
  const std::string dir = fresh_dir("stats_fleet");
  ServeOptions options = test_options(dir);
  options.worker_id = 3;
  options.restarts_observed = 2;
  ServeCore core(options);
  core.note_shed(Op::kFeedback);
  core.note_shed(Op::kPredict);
  core.note_lane_depths(5, 7);

  const JsonValue st = JsonValue::parse(core.stats_reply("s"));
  EXPECT_GE(st.find("uptime_s")->as_number(), 0.0);
  EXPECT_EQ(st.find("worker_id")->as_number(), 3.0);
  EXPECT_EQ(st.find("restarts_observed")->as_number(), 2.0);
  EXPECT_FALSE(st.find("refit_lease")->find("enabled")->as_bool());
  EXPECT_EQ(st.find("counters")->find("shed")->as_number(), 2.0);
  const JsonValue* lanes = st.find("lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->find("predict")->find("depth")->as_number(), 5.0);
  EXPECT_EQ(lanes->find("predict")->find("shed")->as_number(), 1.0);
  EXPECT_EQ(lanes->find("feedback")->find("depth")->as_number(), 7.0);
  EXPECT_EQ(lanes->find("feedback")->find("shed")->as_number(), 1.0);
}

// ------------------------------------------------------ crash restart ----

// The acceptance-gate crash test: SIGKILL the serving process mid-refit
// (no cleanup of any kind runs), restart on the same state dir, and
// require the survivor store to verify byte-for-byte and serve.
TEST(ServeCrashTest, SigkillMidRefitRestartsFromLastPersistedModel) {
  const auto& s = shared_state();  // built BEFORE fork (threads, statics)
  const std::string dir = fresh_dir("crash");
  const std::string marker = dir + "/generation1.marker";

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: refit in a tight loop so the parent's SIGKILL lands inside
    // the feedback->fit->persist->swap cycle, whatever the timing.
    ServeCore core(test_options(dir));
    long long seen = 0;
    for (long long iter = 0; iter < 1000000; ++iter) {
      for (std::size_t i = 0; i < core.options().refit_every; ++i) {
        const auto& p = s.profiles[i % s.profiles.size()];
        (void)core.handle_request(
            feedback_request(p, consistent_times(s.predictor, p), "f"));
      }
      (void)core.run_refit();
      if (core.generation() > seen) {
        seen = core.generation();
        if (seen == 1) {
          std::ofstream m(marker);
          m << "1\n";
        }
      }
    }
    _exit(0);
  }

  // Parent: wait until the child has published at least one refit, then
  // kill it without warning.
  while (!std::filesystem::exists(marker)) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0) << "child exited early";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // mid-cycle
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The store must verify: header fingerprint byte-identical to the hash
  // of the body actually on disk (i.e. a complete, untorn model).
  const ModelStore store(dir + "/serve_model.txt");
  const auto stored = store.load();
  ASSERT_TRUE(stored.has_value());
  EXPECT_GE(stored->generation, 1);
  std::string text;
  {
    std::ifstream in(store.path());
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string body = text.substr(text.find('\n') + 1);
  EXPECT_EQ(stored->fingerprint, ModelStore::fingerprint_of(body));

  // A restart bootstraps from the survivor (not the seed model) and
  // serves predictions from it immediately.
  ServeCore restarted(test_options(dir));
  EXPECT_TRUE(restarted.bootstrap_note().empty());
  EXPECT_EQ(restarted.generation(), stored->generation);
  EXPECT_EQ(restarted.fingerprint(), stored->fingerprint);
  const JsonValue reply = JsonValue::parse(
      restarted.handle_request(predict_request(s.profiles[0], "after")));
  EXPECT_TRUE(reply.find("ok")->as_bool());
  EXPECT_FALSE(reply.find("fallback")->as_bool());
}

// --------------------------------------------------- socket daemon ----
//
// Server::run end to end: a daemon on a temporary Unix socket, driven by
// real client connections. Replies are matched to requests by id.

/// A request id such as "r17". Appended, not `"r" + std::to_string(i)`:
/// GCC 12 reports a false -Werror=restrict on that form in Release.
std::string tagged_id(char prefix, std::size_t i) {
  std::string id(1, prefix);
  id += std::to_string(i);
  return id;
}

/// The wire form of a predict (times == nullptr) or feedback request.
std::string request_line(const sim::RunProfile& p, const std::string& id,
                         const core::SystemTimes* times = nullptr) {
  JsonWriter w;
  w.begin_object();
  w.field("op", times == nullptr ? "predict" : "feedback");
  w.field("id", id);
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
  if (times != nullptr) {
    w.begin_object("times");
    for (const arch::SystemId sys : arch::kAllSystems) {
      w.field(arch::to_string(sys), (*times)[static_cast<std::size_t>(sys)]);
    }
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Reads from `fd` until `count` newline-terminated lines have arrived or
/// 20 s passed; returns the lines (without their newlines).
std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (lines.size() < count && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      lines.push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  return lines;
}

/// True when nothing more arrives on `fd` within `ms` milliseconds.
bool quiet_for(int fd, int ms) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, ms) == 0;
}

/// A Server listening on a fresh socket, run() on its own thread. The
/// destructor shuts it down through the protocol and joins it.
class SocketDaemon {
 public:
  explicit SocketDaemon(const std::string& tag)
      : dir_(fresh_dir(tag)), core_(test_options(dir_)), server_(core_, [&] {
          ServerOptions options;
          options.socket_path = dir_ + "/d.sock";
          options.pool_threads = 2;
          return options;
        }()) {
    thread_ = std::thread([this] { exit_code_ = server_.run(); });
  }
  ~SocketDaemon() { (void)stop(); }
  SocketDaemon(const SocketDaemon&) = delete;
  SocketDaemon& operator=(const SocketDaemon&) = delete;

  ServeCore& core() { return core_; }

  /// A client connection; retries while the listener comes up.
  [[nodiscard]] int connect() const {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    const std::string path = dir_ + "/d.sock";
    std::copy(path.begin(), path.end(), addr.sun_path);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        return fd;
      }
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  /// Sends a shutdown request and joins the daemon; returns run()'s code.
  int stop() {
    if (thread_.joinable()) {
      const int fd = connect();
      if (fd >= 0) {
        send_all(fd, "{\"op\":\"shutdown\",\"id\":\"bye\"}\n");
        (void)read_lines(fd, 1);
        ::close(fd);
      }
      thread_.join();
    }
    return exit_code_;
  }

 private:
  std::string dir_;
  ServeCore core_;
  Server server_;
  std::thread thread_;
  int exit_code_ = -1;
};

/// Counts replies per id, checking each parses and is ok.
std::map<std::string, int> ok_replies_by_id(const std::vector<std::string>& lines) {
  std::map<std::string, int> seen;
  for (const std::string& line : lines) {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_TRUE(v.find("ok")->as_bool()) << line;
    ++seen[v.find("id")->as_string()];
  }
  return seen;
}

/// Every request the socket tests send leaves the injector as it was.
struct ServeSocketTest : ::testing::Test {
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(ServeSocketTest, PipelinedAndSplitLinesAreEachAnsweredOnce) {
  const auto& s = shared_state();
  SocketDaemon daemon("sock_pipe");
  const int fd = daemon.connect();
  ASSERT_GE(fd, 0);

  std::string burst;
  for (std::size_t i = 0; i < 200; ++i) {
    const sim::RunProfile& p = s.profiles[i % s.profiles.size()];
    const core::SystemTimes times = consistent_times(s.predictor, p);
    burst += request_line(p, tagged_id('r', i), i % 16 == 15 ? &times : nullptr);
  }
  send_all(fd, burst);
  // One more line, split across two sends.
  const std::string split = request_line(s.profiles[0], "split");
  send_all(fd, split.substr(0, split.size() / 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send_all(fd, split.substr(split.size() / 2));

  const std::map<std::string, int> seen = ok_replies_by_id(read_lines(fd, 201));
  ASSERT_EQ(seen.size(), 201u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(seen.count(tagged_id('r', i)), 1u) << i;
  }
  EXPECT_EQ(seen.count("split"), 1u);
  for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << id;
  EXPECT_TRUE(quiet_for(fd, 100));
  ::close(fd);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST_F(ServeSocketTest, OversizedLineGetsOneBadRequestThenServingResumes) {
  SocketDaemon daemon("sock_big");
  const int fd = daemon.connect();
  ASSERT_GE(fd, 0);
  send_all(fd, std::string((3U << 20U) / 2, 'x') + "\n");
  send_all(fd, request_line(shared_state().profiles[0], "after"));

  const std::vector<std::string> lines = read_lines(fd, 2);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue rejected = JsonValue::parse(lines[0]);
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("code")->as_string(), "bad_request");
  EXPECT_EQ(rejected.find("error")->as_string(), "request line exceeds 1 MiB");
  const JsonValue served = JsonValue::parse(lines[1]);
  EXPECT_TRUE(served.find("ok")->as_bool());
  EXPECT_EQ(served.find("id")->as_string(), "after");
  EXPECT_TRUE(quiet_for(fd, 100));  // the line's tail drew no second reply
  ::close(fd);
}

TEST_F(ServeSocketTest, InterleavedConnectionsGetOnlyTheirOwnReplies) {
  const auto& s = shared_state();
  SocketDaemon daemon("sock_two");
  const int a = daemon.connect();
  const int b = daemon.connect();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  for (std::size_t i = 0; i < 50; ++i) {
    const sim::RunProfile& p = s.profiles[i % s.profiles.size()];
    send_all(a, request_line(p, tagged_id('a', i)));
    send_all(b, request_line(p, tagged_id('b', i)));
  }
  for (const auto& [fd, prefix] : {std::pair{a, 'a'}, std::pair{b, 'b'}}) {
    const std::map<std::string, int> seen = ok_replies_by_id(read_lines(fd, 50));
    EXPECT_EQ(seen.size(), 50u) << prefix;
    for (const auto& [id, n] : seen) {
      EXPECT_EQ(id.front(), prefix) << id;
      EXPECT_EQ(n, 1) << id;
    }
  }
  ::close(a);
  ::close(b);
}

TEST_F(ServeSocketTest, ShortWriteFaultTearsExactlyTheNthReply) {
  const auto& s = shared_state();
  SocketDaemon daemon("sock_torn");
  const int fd = daemon.connect();
  ASSERT_GE(fd, 0);
  // Predict replies are a pure function of the request, so the expected
  // bytes can be computed beside the daemon.
  std::string burst;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    const Request req = predict_request(s.profiles[i % s.profiles.size()],
                                        tagged_id('t', i));
    burst += request_line(req.profile, req.id);
    expected.push_back(daemon.core().handle_request(req));
  }
  FaultInjector::instance().arm("short-write-mid-reply:3");
  send_all(fd, burst);

  // The torn third reply lost its newline, so it runs into the fourth.
  const std::vector<std::string> lines = read_lines(fd, 7);
  ASSERT_EQ(lines.size(), 7u);
  const std::string torn = expected[2].substr(0, (expected[2].size() + 1) / 2);
  EXPECT_EQ(lines[0], expected[0]);
  EXPECT_EQ(lines[1], expected[1]);
  EXPECT_EQ(lines[2], torn + expected[3]);
  EXPECT_THROW((void)JsonValue::parse(lines[2]), ParseError);
  for (std::size_t i = 3; i < 7; ++i) EXPECT_EQ(lines[i], expected[i + 1]) << i;
  EXPECT_EQ(FaultInjector::instance().hits(FaultSite::kMidReply), 8);
  ::close(fd);
}

TEST_F(ServeSocketTest, ClientClosingWithQueuedRepliesLeavesOthersUntouched) {
  const auto& s = shared_state();
  SocketDaemon daemon("sock_gone");
  const int gone = daemon.connect();
  ASSERT_GE(gone, 0);
  std::string burst;
  for (std::size_t i = 0; i < 300; ++i) {
    burst += request_line(s.profiles[i % s.profiles.size()], "gone" + std::to_string(i));
  }
  send_all(gone, burst);
  ::close(gone);  // with its replies still queued

  // A new client may get the closed client's fd number once the daemon
  // closes it; it must receive its own replies and nothing else.
  const int next = daemon.connect();
  ASSERT_GE(next, 0);
  std::string mine;
  for (std::size_t i = 0; i < 50; ++i) {
    mine += request_line(s.profiles[i % s.profiles.size()], "next" + std::to_string(i));
  }
  send_all(next, mine);
  const std::map<std::string, int> seen = ok_replies_by_id(read_lines(next, 50));
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [id, n] : seen) {
    EXPECT_EQ(id.rfind("next", 0), 0u) << id;
    EXPECT_EQ(n, 1) << id;
  }
  send_all(next, "{\"op\":\"stats\",\"id\":\"alive\"}\n");
  const std::vector<std::string> stats = read_lines(next, 1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(JsonValue::parse(stats[0]).find("id")->as_string(), "alive");
  EXPECT_TRUE(quiet_for(next, 100));
  ::close(next);
  EXPECT_EQ(daemon.stop(), 0);
}

// -------------------------------------------------- concurrency stress ----

// TSan-lane stress: predicts, feedback, refits, and stats hammer one
// ServeCore concurrently, mirroring the daemon's batcher + refit + intake
// threads. Counters must reconcile exactly afterwards.
TEST(ServeStressTest, ConcurrentPredictFeedbackRefitAndStats) {
  const auto& s = shared_state();
  const std::string dir = fresh_dir("stress");
  ServeOptions options = test_options(dir);
  options.refit_every = 4;
  options.refit_rounds = 2;
  ServeCore core(options);
  ThreadPool pool(2);

  constexpr int kPredictThreads = 3;
  constexpr int kBatches = 25;
  std::atomic<long long> bad_replies{0};
  std::atomic<bool> stop{false};

  std::thread refitter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        (void)core.run_refit(&pool);
      } catch (...) {
        bad_replies.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });
  std::thread feeder([&] {
    for (int c = 0; c < kBatches; ++c) {
      for (const auto& p : s.profiles) {
        const std::string reply = core.handle_request(
            feedback_request(p, consistent_times(s.predictor, p), "f"));
        if (!JsonValue::parse(reply).find("ok")->as_bool()) {
          bad_replies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> predictors;
  predictors.reserve(kPredictThreads);
  for (int t = 0; t < kPredictThreads; ++t) {
    predictors.emplace_back([&] {
      std::vector<Request> batch;
      for (std::size_t i = 0; i < s.profiles.size(); ++i) {
        batch.push_back(predict_request(s.profiles[i], "p"));
      }
      for (int c = 0; c < kBatches; ++c) {
        const auto replies = core.handle_requests(batch, &pool);
        for (const auto& reply : replies) {
          if (!JsonValue::parse(reply).find("ok")->as_bool()) {
            bad_replies.fetch_add(1, std::memory_order_relaxed);
          }
        }
        (void)core.stats_reply("s");
      }
    });
  }

  feeder.join();
  for (std::thread& p : predictors) p.join();
  // The refitter is asynchronous: on a loaded machine it can sit
  // descheduled for this whole few-ms stress and exit on `stop` without
  // ever observing refit_pending(). Every feedback is in and drift never
  // trips here, so a refit is pending — hold the stop (bounded, so a
  // genuine refit bug still fails below instead of hanging) until one
  // publishes.
  const auto refit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core.generation() == 0 &&
         std::chrono::steady_clock::now() < refit_deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  refitter.join();

  EXPECT_EQ(bad_replies.load(), 0);
  const JsonValue st = JsonValue::parse(core.stats_reply("final"));
  const auto* counters = st.find("counters");
  EXPECT_EQ(counters->find("predicts")->as_number(),
            static_cast<double>(kPredictThreads) * kBatches *
                static_cast<double>(s.profiles.size()));
  EXPECT_EQ(counters->find("feedbacks")->as_number(),
            static_cast<double>(kBatches) * static_cast<double>(s.profiles.size()));
  EXPECT_EQ(counters->find("request_errors")->as_number(), 0.0);
  EXPECT_GE(st.find("generation")->as_number(), 1.0)  // refits happened
      << core.stats_reply("final");
}

}  // namespace
}  // namespace mphpc::serve
