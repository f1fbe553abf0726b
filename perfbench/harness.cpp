#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <random>

#include "common/json_writer.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

std::optional<double> tail_percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const long long total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total : 0.0;
}

double calm_median(const std::vector<double>& values, const std::vector<double>& steal) {
  std::vector<double> calm;
  std::size_t least = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= kMaxSteal) calm.push_back(values[i]);
    if (steal[i] < steal[least]) least = i;
  }
  if (!calm.empty()) return median(std::move(calm));
  return values.empty() ? 0.0 : values[least];
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

bool Report::check(bool ok, std::string_view what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
  return ok;
}

std::string Report::json() const {
  mphpc::JsonWriter w;
  w.begin_object();
  w.field("correct", correct_);
  w.field("attempted", attempted_);
  w.field("failed", failed_);
  w.begin_object("metrics");
  for (const Metric& m : metrics_) {
    w.begin_object(m.name);
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::vector<double> poisson_offsets(double rate_per_s, std::size_t count,
                                    std::uint64_t seed) {
  std::vector<double> offsets;
  if (!(rate_per_s > 0.0)) return offsets;
  offsets.reserve(count);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) offsets.push_back(t += gap(rng));
  return offsets;
}

std::optional<std::size_t> reply_index(std::string_view reply) {
  constexpr std::string_view kPrefix = "{\"id\":\"";
  if (reply.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  std::size_t pos = kPrefix.size();
  if (pos >= reply.size() || (reply[pos] != 'p' && reply[pos] != 'f')) {
    return std::nullopt;
  }
  ++pos;
  std::size_t value = 0;
  const std::size_t first = pos;
  while (pos < reply.size() && reply[pos] >= '0' && reply[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(reply[pos] - '0');
    ++pos;
  }
  if (pos == first || pos >= reply.size() || reply[pos] != '"') return std::nullopt;
  return value;
}

ReplyTracker::ReplyTracker(std::size_t capacity)
    : due_(capacity),
      sent_(capacity),
      received_at_(capacity),
      replies_(new std::atomic<std::uint8_t>[capacity]),
      ok_(new std::atomic<std::uint8_t>[capacity]) {
  for (std::size_t i = 0; i < capacity; ++i) {
    replies_[i].store(0, std::memory_order_relaxed);
    ok_[i].store(0, std::memory_order_relaxed);
  }
}

bool ReplyTracker::mark_received(std::size_t i, Clock::time_point at, bool ok) {
  if (i >= due_.size()) return false;
  if (replies_[i].fetch_add(1, std::memory_order_relaxed) != 0) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  received_at_[i] = at;
  ok_[i].store(ok ? 1 : 0, std::memory_order_relaxed);
  received_.fetch_add(1, std::memory_order_release);
  return true;
}

ReplyTracker::Summary ReplyTracker::summarize(std::size_t lo,
                                              std::size_t hi) const {
  Summary s;
  s.latency_ms.reserve(hi - lo);
  s.lag_ms.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    s.lag_ms.push_back(1e3 * seconds_between(due_[i], sent_[i]));
    if (replies_[i].load(std::memory_order_acquire) == 0) {
      ++s.missing;
      continue;
    }
    ++s.answered;
    if (ok_[i].load(std::memory_order_relaxed) != 0) ++s.ok;
    s.latency_ms.push_back(1e3 * seconds_between(due_[i], received_at_[i]));
    s.last_reply = std::max(s.last_reply, received_at_[i]);
  }
  return s;
}

}  // namespace perfbench
