// Harness pieces shared by the perfbench workloads and checked by
// perfbench_selftest: percentiles that refuse to report a tail the sample
// cannot support, the metric report printed as the run's last line, an
// open-loop arrival schedule with a reply tracker that matches replies by
// request id and times them from their due send time, and a forwarding
// MachineAssigner that counts assigner calls without changing the
// scheduler's behaviour.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/assigners.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1). Reported only when at least ten
/// samples lie beyond it (so p99 needs 1000 samples); nullopt otherwise.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> values,
                                                    double q);

/// Host CPU time counters (jiffies, all CPUs) from /proc/stat: the total
/// and the part the hypervisor gave to other guests (steal). Zero when
/// unavailable.
struct CpuTimes {
  long long total = 0;
  long long steal = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Share of CPU time stolen between two samples (0 when unknown).
[[nodiscard]] double steal_share(const CpuTimes& before, const CpuTimes& after);

/// A measurement taken while the hypervisor stole more than this share of
/// the host's CPU time measures the neighbours, not the program.
inline constexpr double kMaxSteal = 0.02;

/// Median of the values measured with at most kMaxSteal stolen
/// (`steal[i]` belongs to `values[i]`); when there are none, the value
/// measured with the least steal.
[[nodiscard]] double calm_median(const std::vector<double>& values,
                                 const std::vector<double>& steal);

/// Set-ups per run; setup_s is their calm median.
inline constexpr int kSetups = 5;

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: metrics, operation counts, and the outcome
/// of its correctness checks. A failed check is printed to stderr.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Records a correctness check; returns `ok`.
  bool check(bool ok, std::string_view what);
  void attempt(long long n = 1) noexcept { attempted_ += n; }
  void fail(long long n = 1) noexcept { failed_ += n; }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
};

/// Offsets (seconds from phase start) of the first `count` arrivals of a
/// Poisson process at `rate_per_s`, drawn from `seed`.
[[nodiscard]] std::vector<double> poisson_offsets(double rate_per_s, std::size_t count,
                                                  std::uint64_t seed);

/// Parses the request index out of a predict or feedback reply, which
/// begins {"id":"p<digits>" or {"id":"f<digits>"; nullopt for any other
/// line (stats replies use ids starting with 's').
[[nodiscard]] std::optional<std::size_t> reply_index(std::string_view reply);

/// Per-request bookkeeping of an open-loop session. Request `i` is due at
/// `due(i)`; the generator records when it actually went out, and reader
/// threads record replies by id in whatever order they arrive. Latency is
/// measured from the due time, so a stalled generator or daemon charges
/// the wait to every request queued behind the stall; how late the
/// generator ran is reported separately.
class ReplyTracker {
 public:
  explicit ReplyTracker(std::size_t capacity);

  void set_due(std::size_t i, Clock::time_point due) { due_[i] = due; }
  void mark_sent(std::size_t i, Clock::time_point sent) { sent_[i] = sent; }
  /// Records a reply; returns false for an unknown index or a duplicate.
  bool mark_received(std::size_t i, Clock::time_point at, bool ok);
  /// Replies recorded so far (acquire: their times are visible).
  [[nodiscard]] std::size_t received() const noexcept {
    return received_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t duplicates() const noexcept {
    return duplicates_.load(std::memory_order_relaxed);
  }

  struct Summary {
    std::vector<double> latency_ms;  ///< received - due, answered requests
    std::vector<double> lag_ms;      ///< sent - due, every request
    std::size_t answered = 0;
    std::size_t ok = 0;
    std::size_t missing = 0;
    Clock::time_point last_reply{};  ///< latest reply time
  };
  /// Summarises requests [lo, hi).
  [[nodiscard]] Summary summarize(std::size_t lo, std::size_t hi) const;

 private:
  std::vector<Clock::time_point> due_;
  std::vector<Clock::time_point> sent_;
  std::vector<Clock::time_point> received_at_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> replies_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> ok_;
  std::atomic<std::size_t> received_{0};
  std::atomic<std::size_t> duplicates_{0};
};

/// Forwarding MachineAssigner that counts every assign() call. prime() and
/// stateless_assign() are forwarded so the engine takes the same backfill
/// path as with the wrapped assigner alone. It times nothing: an assign()
/// takes ~10 ns, too short for a clock read around it to measure.
class CountingAssigner final : public mphpc::sched::MachineAssigner {
 public:
  explicit CountingAssigner(mphpc::sched::MachineAssigner& inner) : inner_(inner) {}

  [[nodiscard]] mphpc::arch::SystemId assign(
      const mphpc::sched::Job& job, std::size_t started_index,
      const mphpc::sched::ClusterView& view) override {
    ++calls_;
    return inner_.assign(job, started_index, view);
  }
  void prime(std::span<const mphpc::sched::Job> jobs) override {
    inner_.prime(jobs);
  }
  [[nodiscard]] bool stateless_assign() const noexcept override {
    return inner_.stateless_assign();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] long long calls() const noexcept { return calls_; }

 private:
  mphpc::sched::MachineAssigner& inner_;
  long long calls_ = 0;
};

}  // namespace perfbench
