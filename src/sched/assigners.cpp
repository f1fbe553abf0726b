#include "sched/assigners.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace mphpc::sched {

namespace {

constexpr std::array<arch::SystemId, 2> kCpuSystems = {arch::SystemId::kQuartz,
                                                       arch::SystemId::kRuby};
constexpr std::array<arch::SystemId, 2> kGpuSystems = {arch::SystemId::kLassen,
                                                       arch::SystemId::kCorona};

/// Fastest-first machine order from a predicted or true RPV.
template <typename TimeOf>
std::array<arch::SystemId, arch::kNumSystems> fastest_order(TimeOf&& time_of) {
  std::array<std::size_t, arch::kNumSystems> idx{};
  for (std::size_t k = 0; k < idx.size(); ++k) idx[k] = k;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return time_of(static_cast<arch::SystemId>(a)) <
           time_of(static_cast<arch::SystemId>(b));
  });
  std::array<arch::SystemId, arch::kNumSystems> order{};
  for (std::size_t k = 0; k < idx.size(); ++k) {
    order[k] = static_cast<arch::SystemId>(idx[k]);
  }
  return order;
}

/// Picks the first non-full machine in `order`; if every machine is full,
/// returns order[0] (the job reserves/waits there) — Algorithm 2.
arch::SystemId pick_with_fallback(
    const std::array<arch::SystemId, arch::kNumSystems>& order, const Job& job,
    const ClusterView& view) {
  for (const arch::SystemId m : order) {
    if (!view.is_full(m, job.nodes_required)) return m;
  }
  return order[0];
}

}  // namespace

void JobOrderCache::prime(
    std::span<const Job> jobs,
    const std::function<std::optional<Order>(const Job&)>& order_of) {
  MPHPC_EXPECTS(jobs.empty() || jobs.data() != nullptr);
  MPHPC_EXPECTS(static_cast<bool>(order_of));
  orders_.clear();
  states_.clear();
  if (jobs.empty()) return;
  int max_id = -1;
  for (const Job& job : jobs) {
    if (job.id < 0) return;  // ids unusable as dense keys — stay disabled
    max_id = std::max(max_id, job.id);
  }
  // Ids far sparser than the job count would bloat the dense tables; the
  // assigner simply recomputes per call in that case.
  const std::size_t slots = static_cast<std::size_t>(max_id) + 1;
  if (slots > 4 * jobs.size() + 1024) return;
  orders_.assign(slots, Order{});
  states_.assign(slots, State::kUnknown);
  for (const Job& job : jobs) {
    const auto id = static_cast<std::size_t>(job.id);
    if (const std::optional<Order> order = order_of(job)) {
      orders_[id] = *order;
      states_[id] = State::kOrdered;
    } else {
      states_[id] = State::kNoOrder;
    }
  }
}

JobOrderCache::State JobOrderCache::lookup(const Job& job,
                                           const Order** order) const noexcept {
  MPHPC_ASSERT(order != nullptr);
  *order = nullptr;
  if (job.id < 0) return State::kUnknown;
  const auto id = static_cast<std::size_t>(job.id);
  if (id >= states_.size()) return State::kUnknown;
  if (states_[id] == State::kOrdered) *order = &orders_[id];
  return states_[id];
}

int MachineAssigner::startable_width(std::size_t /*started_index*/,
                                     const ClusterView& view, std::size_t lane,
                                     arch::SystemId machine) const {
  MPHPC_EXPECTS(lane < kAssignLanes);
  return view.free_nodes(machine);
}

int RoundRobinAssigner::startable_width(std::size_t started_index,
                                        const ClusterView& view,
                                        std::size_t /*lane*/,
                                        arch::SystemId machine) const {
  const auto& machines = view.machines();
  MPHPC_EXPECTS(!machines.empty());
  const arch::SystemId target = machines[started_index % machines.size()].id;
  return machine == target ? view.free_nodes(machine) : 0;
}

arch::SystemId RoundRobinAssigner::assign(const Job& /*job*/, std::size_t started_index,
                                          const ClusterView& view) {
  const auto& machines = view.machines();
  MPHPC_EXPECTS(!machines.empty());
  return machines[started_index % machines.size()].id;
}

arch::SystemId RandomAssigner::assign(const Job& /*job*/, std::size_t /*started_index*/,
                                      const ClusterView& view) {
  return view.machines()[rng_.below(view.machines().size())].id;
}

bool RandomAssigner::skip_rejected(const LaneCounts& rejected) {
  for (const std::size_t calls : rejected) rng_.discard(calls);
  return true;
}

arch::SystemId UserRoundRobinAssigner::assign(const Job& job,
                                              std::size_t /*started_index*/,
                                              const ClusterView& /*view*/) {
  if (job.gpu_capable) {
    return kGpuSystems[gpu_next_++ % kGpuSystems.size()];
  }
  return kCpuSystems[cpu_next_++ % kCpuSystems.size()];
}

int UserRoundRobinAssigner::startable_width(std::size_t /*started_index*/,
                                            const ClusterView& view, std::size_t lane,
                                            arch::SystemId machine) const {
  MPHPC_EXPECTS(lane < kAssignLanes);
  const auto& systems = lane == kGpuLane ? kGpuSystems : kCpuSystems;
  return machine == systems[0] || machine == systems[1] ? view.free_nodes(machine) : 0;
}

bool UserRoundRobinAssigner::skip_rejected(const LaneCounts& rejected) {
  cpu_next_ += rejected[kCpuLane];
  gpu_next_ += rejected[kGpuLane];
  return true;
}

void ModelBasedAssigner::prime(std::span<const Job> jobs) {
  MPHPC_EXPECTS(jobs.empty() || jobs.data() != nullptr);
  cache_.prime(jobs, [](const Job& job) {
    return fastest_order([&](arch::SystemId m) { return job.predicted.time_ratio(m); });
  });
}

arch::SystemId ModelBasedAssigner::assign(const Job& job, std::size_t /*started_index*/,
                                          const ClusterView& view) {
  const JobOrderCache::Order* cached = nullptr;
  if (cache_.lookup(job, &cached) == JobOrderCache::State::kOrdered) {
    return pick_with_fallback(*cached, job, view);
  }
  const auto order =
      fastest_order([&](arch::SystemId m) { return job.predicted.time_ratio(m); });
  return pick_with_fallback(order, job, view);
}

void OracleAssigner::prime(std::span<const Job> jobs) {
  MPHPC_EXPECTS(jobs.empty() || jobs.data() != nullptr);
  cache_.prime(jobs, [](const Job& job) {
    return fastest_order(
        [&](arch::SystemId m) { return job.runtime[static_cast<std::size_t>(m)]; });
  });
}

arch::SystemId OracleAssigner::assign(const Job& job, std::size_t /*started_index*/,
                                      const ClusterView& view) {
  const JobOrderCache::Order* cached = nullptr;
  if (cache_.lookup(job, &cached) == JobOrderCache::State::kOrdered) {
    return pick_with_fallback(*cached, job, view);
  }
  const auto order = fastest_order(
      [&](arch::SystemId m) { return job.runtime[static_cast<std::size_t>(m)]; });
  return pick_with_fallback(order, job, view);
}

void GuardedModelBasedAssigner::prime(std::span<const Job> jobs) {
  MPHPC_EXPECTS(jobs.empty() || jobs.data() != nullptr);
  long long implausible = 0;
  cache_.prime(jobs,
               [this, &implausible](const Job& job)
                   -> std::optional<JobOrderCache::Order> {
                 if (!core::is_plausible_rpv(job.predicted, bounds_)) {
                   ++implausible;
                   return std::nullopt;
                 }
                 return fastest_order(
                     [&](arch::SystemId m) { return job.predicted.time_ratio(m); });
               });
  primed_pure_ = cache_.primed() && implausible == 0;
}

arch::SystemId GuardedModelBasedAssigner::assign(const Job& job,
                                                 std::size_t started_index,
                                                 const ClusterView& view) {
  MPHPC_EXPECTS(!view.machines().empty());
  const JobOrderCache::Order* cached = nullptr;
  switch (cache_.lookup(job, &cached)) {
    case JobOrderCache::State::kOrdered:
      return pick_with_fallback(*cached, job, view);
    case JobOrderCache::State::kNoOrder:
      // Only the plausibility verdict is memoized, never the placement:
      // the User+RR fallback is stateful and must advance on every call
      // so results stay identical to the un-primed assigner.
      ++fallbacks_;
      return fallback_.assign(job, started_index, view);
    case JobOrderCache::State::kUnknown:
      break;
  }
  if (!core::is_plausible_rpv(job.predicted, bounds_)) {
    ++fallbacks_;
    return fallback_.assign(job, started_index, view);
  }
  const auto order =
      fastest_order([&](arch::SystemId m) { return job.predicted.time_ratio(m); });
  return pick_with_fallback(order, job, view);
}

}  // namespace mphpc::sched
