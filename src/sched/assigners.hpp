// Machine-assignment strategies (paper §VII): Round-Robin, Random,
// User+RR (GPU apps to GPU machines, round-robin within the class), and
// the Model-based strategy of Algorithm 2, which places each job on its
// predicted-fastest machine, falling back to the next-fastest while the
// preferred machine is full.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/job.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {

/// Number of lanes MachineAssigner::lane() may return.
inline constexpr std::size_t kAssignLanes = 2;
/// Per-lane counts of assign() calls (MachineAssigner::skip_rejected).
using LaneCounts = std::array<std::size_t, kAssignLanes>;

/// Strategy interface: `Machine(j, i, M)` in the paper's notation, where
/// `started_index` is the count of jobs started so far (the paper's i).
class MachineAssigner {
 public:
  virtual ~MachineAssigner() = default;

  [[nodiscard]] virtual arch::SystemId assign(const Job& job,
                                              std::size_t started_index,
                                              const ClusterView& view) = 0;

  /// Called once by the simulation engine with the full job list before
  /// any assign() call. Assigners whose per-job preference is a pure
  /// function of the job (Model-based, Oracle) memoize it here, so
  /// repeated backfill passes replay a cached ordering instead of
  /// re-deriving it. Default: no-op.
  // lint:allow-next-line contract-coverage -- no-op default has no precondition
  virtual void prime(std::span<const Job> jobs) { (void)jobs; }

  /// True when, for the job set passed to the latest prime(), assign() is
  /// a pure function of (job, started_index, view) — no internal state
  /// advances per call. The engine's backfill pass may then skip
  /// candidates that startable_width() shows cannot start without calling
  /// assign() on them, and counts only the candidates it could start
  /// toward SchedulerOptions::backfill_depth. A stateful assigner
  /// (Random's RNG, User+RR's rotation) must see every candidate's call,
  /// or have it replayed by skip_rejected(), so its state advances
  /// identically to a pass that assigns every candidate. Default: stateful.
  [[nodiscard]] virtual bool stateless_assign() const noexcept {
    return false;
  }

  /// Lane of `job`, below kAssignLanes. A rejected assign() call advances
  /// the internal state the same way for every job of one lane, and calls
  /// in different lanes commute, so skip_rejected() can replay rejected
  /// calls from per-lane counts alone. Must be a pure function of the job
  /// for the job set passed to the latest prime(): the engine caches it.
  /// Default: one lane.
  [[nodiscard]] virtual std::size_t lane(const Job& job) const noexcept {
    (void)job;
    return 0;
  }

  /// Widest job of `lane` that assign(job, started_index, view) could
  /// place on `machine` with room for it right now; a wider job of that
  /// lane is never sent there with room, and 0 says no job of the lane
  /// starts there. Backfill uses it to pass candidates by without calling
  /// assign(), so an override may be tight but must never under-report.
  /// The bound may change only when a job starts (started_index or the
  /// view changes), and may grow or shrink then. For a stateless or a
  /// replaying assigner the backfill pass, per lane:
  ///  - passes by every candidate wider than the widest bound over the
  ///    machines;
  ///  - steps over a candidate that only the head's reserved machine can
  ///    take, with too few nodes spare at the head's shadow time, when it
  ///    cannot end by then.
  /// Default: the machine's free nodes, which holds for any assigner and
  /// lane.
  [[nodiscard]] virtual int startable_width(std::size_t started_index,
                                            const ClusterView& view, std::size_t lane,
                                            arch::SystemId machine) const;

  /// Advances the internal state exactly as `rejected[l]` assign() calls
  /// on jobs of lane l would when none of them starts its job, and
  /// returns true. The backfill pass replays the calls of the candidates
  /// it passes by before its next real assign() call, and once at the
  /// end of the pass, so the replay needs three things: a call's state
  /// change depends only on its job's lane, not on the job, the view or
  /// the machine it returns; calls of different lanes commute; and
  /// startable_width() never under-reports. Returns false, changing
  /// nothing, when the assigner cannot replay calls; the engine probes
  /// with all-zero counts after prime() and, on false, calls assign() on
  /// every backfill candidate. Default: false.
  [[nodiscard]] virtual bool skip_rejected(const LaneCounts& rejected) {
    (void)rejected;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Memoized per-job machine orderings. A job's predicted RPV and observed
/// runtimes never change during a simulation, so its fastest-first order
/// can be computed once at prime() time and replayed on every scheduling
/// and backfill pass. Jobs are keyed densely by Job::id; when ids are
/// negative or far sparser than the job count the cache stays disabled
/// (lookup() returns kUnknown) and the assigner computes per call — the
/// cache can only change cost, never results.
class JobOrderCache {
 public:
  using Order = std::array<arch::SystemId, arch::kNumSystems>;

  enum class State : std::uint8_t {
    kUnknown = 0,  ///< not primed / id outside the cache — compute per call
    kOrdered = 1,  ///< cached fastest-first order available
    kNoOrder = 2,  ///< primed, but this job bypasses the model path
  };

  /// Rebuilds the cache from a job list. `order_of` maps a job to its
  /// machine order, or nullopt for jobs that take a non-model path (e.g.
  /// an implausible RPV under the guarded assigner).
  void prime(std::span<const Job> jobs,
             const std::function<std::optional<Order>(const Job&)>& order_of);

  /// Looks up a job; on kOrdered, `*order` points at the cached order
  /// (valid until the next prime()).
  [[nodiscard]] State lookup(const Job& job, const Order** order) const noexcept;

  /// True when the latest prime() enabled the dense tables (every lookup
  /// of a primed job resolves to kOrdered or kNoOrder).
  [[nodiscard]] bool primed() const noexcept { return !states_.empty(); }

 private:
  std::vector<Order> orders_;
  std::vector<State> states_;
};

/// Rotates through the machines for each consecutive job.
class RoundRobinAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  [[nodiscard]] bool stateless_assign() const noexcept override { return true; }
  /// assign() ignores the job and sends it to this start's target
  /// machine: the target's free nodes there, 0 on every other machine.
  /// Every job is in lane 0, so the lane is ignored.
  [[nodiscard]] int startable_width(std::size_t started_index, const ClusterView& view,
                                    std::size_t lane,
                                    arch::SystemId machine) const override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }
};

/// Uniformly random machine.
class RandomAssigner final : public MachineAssigner {
 public:
  explicit RandomAssigner(std::uint64_t seed) noexcept : rng_(seed) {}
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  /// Every call consumes exactly one raw draw (Rng::below), whatever the
  /// job, so one lane suffices and a rejected call is one discarded draw.
  [[nodiscard]] bool skip_rejected(const LaneCounts& rejected) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  Rng rng_;
};

/// Mimics typical user behaviour: GPU-enabled apps round-robin over the
/// GPU systems, CPU-only apps round-robin over the CPU systems.
class UserRoundRobinAssigner final : public MachineAssigner {
 public:
  static constexpr std::size_t kCpuLane = 0;
  static constexpr std::size_t kGpuLane = 1;

  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  /// The lane picks the rotation counter a call advances: CPU or GPU.
  [[nodiscard]] std::size_t lane(const Job& job) const noexcept override {
    return job.gpu_capable ? kGpuLane : kCpuLane;
  }
  /// A lane's jobs only go to its two machines: their free nodes there,
  /// 0 on the other lane's machines.
  [[nodiscard]] int startable_width(std::size_t started_index, const ClusterView& view,
                                    std::size_t lane,
                                    arch::SystemId machine) const override;
  [[nodiscard]] bool skip_rejected(const LaneCounts& rejected) override;
  [[nodiscard]] std::string name() const override { return "User+RR"; }

 private:
  std::size_t gpu_next_ = 0;
  std::size_t cpu_next_ = 0;
};

/// Algorithm 2: predicted-fastest machine, skipping full machines; if all
/// machines are full, the overall predicted-fastest (the job waits there).
class ModelBasedAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  [[nodiscard]] bool stateless_assign() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "Model-based"; }

 private:
  JobOrderCache cache_;
};

/// An upper-bound variant used in ablations: like Model-based but with
/// oracle knowledge of the true fastest machine.
class OracleAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  [[nodiscard]] bool stateless_assign() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "Oracle"; }

 private:
  JobOrderCache cache_;
};

/// Degraded-mode Algorithm 2: validates each job's predicted RPV before
/// acting on it (finite, positive, within core::RpvGuardOptions bounds).
/// Implausible predictions — NaN/inf from a corrupt model, negative or
/// wildly out-of-range ratios — never reach the placement logic; the job
/// is placed by the user-preference heuristic instead and a fallback
/// counter is incremented, so one poisoned prediction cannot crash or
/// steer a long scheduling run.
class GuardedModelBasedAssigner final : public MachineAssigner {
 public:
  GuardedModelBasedAssigner() = default;
  explicit GuardedModelBasedAssigner(const core::RpvGuardOptions& bounds) noexcept
      : bounds_(bounds) {}

  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  /// Pure only when every primed job took the model path: one implausible
  /// RPV routes through the stateful User+RR fallback, whose rotation
  /// must advance on every call.
  [[nodiscard]] bool stateless_assign() const noexcept override {
    return primed_pure_;
  }
  [[nodiscard]] std::string name() const override { return "Model-based (guarded)"; }

  /// Jobs placed by the fallback heuristic instead of the model.
  [[nodiscard]] long long fallbacks() const noexcept { return fallbacks_; }

 private:
  core::RpvGuardOptions bounds_{};
  UserRoundRobinAssigner fallback_;
  long long fallbacks_ = 0;
  bool primed_pure_ = false;
  JobOrderCache cache_;
};

}  // namespace mphpc::sched
