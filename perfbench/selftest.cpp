// perfbench_selftest — checks the benchmark's own harness logic (see
// harness.hpp). Exit code 0 when every check passes; run.py runs it after
// every build and before any workload.
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "sched/easy_scheduler.hpp"

namespace {

using namespace perfbench;
using namespace mphpc;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::abs(a - b) <= tol; }

void percentile_needs_ten_beyond() {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);  // 1..1000
  const auto p99 = tail_percentile(values, 0.99);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990 (10 samples beyond)");
  values.pop_back();
  expect(!tail_percentile(values, 0.99).has_value(),
         "p99 of 999 samples is withheld (only 9 beyond)");
  expect(tail_percentile(std::vector<double>(20, 1.0), 0.5).has_value(),
         "p50 of 20 samples is reported");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of odd and even counts");
  expect(calm_median({1.0, 2.0, 10.0}, {0.0, 0.01, 0.5}) == 1.5,
         "calm median skips the sample taken under heavy steal");
  expect(calm_median({5.0, 3.0, 4.0}, {0.3, 0.1, 0.2}) == 3.0,
         "with no calm sample, the least-stolen one");
}

void open_loop_times_from_due() {
  // Three requests due 1 ms apart; the generator stalls and sends all of
  // them at +5 ms; replies arrive at +6 ms.
  ReplyTracker tracker(3);
  const auto t0 = Clock::now();
  const auto ms = [&](double v) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(v));
  };
  for (std::size_t i = 0; i < 3; ++i) {
    tracker.set_due(i, ms(static_cast<double>(i)));
    tracker.mark_sent(i, ms(5.0));
  }
  for (std::size_t i = 0; i < 3; ++i) tracker.mark_received(i, ms(6.0), true);
  const auto s = tracker.summarize(0, 3);
  expect(s.latency_ms.size() == 3 && near(s.latency_ms[0], 6.0, 1e-3) &&
             near(s.latency_ms[2], 4.0, 1e-3),
         "latency is measured from the due time, stall included");
  expect(s.lag_ms.size() == 3 && near(s.lag_ms[0], 5.0, 1e-3) && near(s.lag_ms[2], 3.0, 1e-3),
         "generator lateness is reported per request");
  expect(s.answered == 3 && s.ok == 3 && s.missing == 0, "all three answered");

  const auto offsets = poisson_offsets(2000.0, 4000, 7);
  expect(offsets == poisson_offsets(2000.0, 4000, 7), "arrival schedule repeats per seed");
  expect(offsets.size() == 4000 && std::is_sorted(offsets.begin(), offsets.end()),
         "exactly the requested arrivals, in order");
  expect(offsets.back() > 1.8 && offsets.back() < 2.2, "arrivals span count / rate");
}

void replies_matched_by_id() {
  expect(reply_index(R"({"id":"p17","ok":true,"op":"predict"})") == 17, "predict id");
  expect(reply_index(R"({"id":"f3","ok":true,"op":"feedback"})") == 3, "feedback id");
  expect(!reply_index(R"({"id":"s1","ok":true,"op":"stats"})").has_value(),
         "stats replies are not request replies");
  expect(!reply_index(R"({"ok":true})").has_value() && !reply_index(R"({"id":"p"})"),
         "malformed ids are rejected");

  // Replies arrive in reverse order, one twice, one never.
  ReplyTracker tracker(4);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < 4; ++i) {
    tracker.set_due(i, t0);
    tracker.mark_sent(i, t0);
  }
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  expect(tracker.mark_received(3, at(100), true), "reply 3 accepted");
  expect(tracker.mark_received(2, at(200), false), "reply 2 accepted");
  expect(tracker.mark_received(0, at(300), true), "reply 0 accepted");
  expect(!tracker.mark_received(0, at(400), true), "duplicate reply 0 refused");
  expect(!tracker.mark_received(9, at(400), true), "unknown id refused");
  const auto s = tracker.summarize(0, 4);
  expect(tracker.duplicates() == 1, "one duplicate counted");
  expect(s.answered == 3 && s.ok == 2 && s.missing == 1, "request 1 missing, 2 not ok");
  expect(std::is_permutation(s.latency_ms.begin(), s.latency_ms.end(),
                             std::vector<double>{0.3, 0.2, 0.1}.begin(),
                             [](double a, double b) { return near(a, b, 1e-6); }),
         "each reply timed against its own request");
}

/// Records what the engine asks of an assigner.
class ProbeAssigner final : public sched::MachineAssigner {
 public:
  explicit ProbeAssigner(bool stateless) : stateless_(stateless) {}
  arch::SystemId assign(const sched::Job&, std::size_t, const sched::ClusterView&) override {
    return arch::SystemId::kQuartz;
  }
  void prime(std::span<const sched::Job> jobs) override { primed_ = jobs.size(); }
  [[nodiscard]] bool stateless_assign() const noexcept override { return stateless_; }
  [[nodiscard]] std::string name() const override { return "probe"; }
  std::size_t primed_ = 0;

 private:
  bool stateless_;
};

std::vector<sched::Job> small_jobs() {
  Rng rng(derive_seed(5, "selftest-jobs"));
  std::vector<sched::Job> jobs;
  for (int i = 0; i < 400; ++i) {
    sched::Job job;
    job.id = i;
    job.app = i % 3 == 0 ? "gpu_app" : "cpu_app";
    job.gpu_capable = i % 3 == 0;
    job.nodes_required = 1 + static_cast<int>(rng() % 2);
    core::SystemTimes times{};
    for (double& t : times) t = 10.0 + static_cast<double>(rng() % 1000);
    job.runtime = times;
    job.predicted = core::Rpv::relative_to(times, arch::SystemId::kQuartz);
    jobs.push_back(job);
  }
  return jobs;
}

bool same_outcomes(const sched::SimulationResult& a, const sched::SimulationResult& b) {
  if (std::memcmp(&a.makespan_s, &b.makespan_s, sizeof a.makespan_s) != 0 ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].machine != b.outcomes[i].machine ||
        a.outcomes[i].start_s != b.outcomes[i].start_s) {
      return false;
    }
  }
  return true;
}

void counting_assigner_forwards() {
  for (const bool stateless : {true, false}) {
    ProbeAssigner probe(stateless);
    CountingAssigner counting(probe);
    expect(counting.stateless_assign() == stateless, "stateless_assign() forwarded");
    const auto jobs = small_jobs();
    counting.prime(jobs);
    expect(probe.primed_ == jobs.size(), "prime() forwarded");
    expect(counting.name() == "probe", "name() forwarded");
  }

  const arch::SystemCatalog systems;
  const auto machines = sched::default_cluster(systems);
  const auto jobs = small_jobs();
  const auto check = [&](sched::MachineAssigner& plain, sched::MachineAssigner& inner,
                         const char* what) {
    CountingAssigner counting(inner);
    const auto expected = sched::simulate(jobs, machines, plain);
    const auto wrapped = sched::simulate(jobs, machines, counting);
    expect(same_outcomes(expected, wrapped), what);
    expect(counting.calls() >= static_cast<long long>(jobs.size()),
           "every job is assigned at least once");
  };
  sched::ModelBasedAssigner model_a, model_b;
  check(model_a, model_b, "wrapped Model-based (indexed backfill) result unchanged");
  sched::RandomAssigner random_a(11), random_b(11);
  check(random_a, random_b, "wrapped Random (full-scan backfill) result unchanged");
}

}  // namespace

int main() {
  percentile_needs_ten_beyond();
  open_loop_times_from_due();
  replies_matched_by_id();
  counting_assigner_forwards();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
