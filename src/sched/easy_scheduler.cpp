#include "sched/easy_scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <queue>
#include <tuple>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "sched/event_queue.hpp"

namespace mphpc::sched {

namespace {

constexpr double kNoEvent = std::numeric_limits<double>::infinity();

// SimEvent::kind values. Each calendar queue carries a single kind today,
// but keeping them distinct preserves the global (time, kind, seq, sub)
// order — kills drain before releases at equal times, matching the event
// loop's processing order.
constexpr std::uint32_t kKillEvent = 0;
constexpr std::uint32_t kReleaseEvent = 1;

/// One running attempt in a machine's ledger.
struct RunningJob {
  std::size_t job = 0;
  int nodes = 0;
  double start = 0.0;
  double end = 0.0;
  /// Work seconds this attempt performs (runtime minus checkpointed
  /// progress); end - start additionally includes checkpoint overhead.
  double work = 0.0;
  /// The checkpoint policy this attempt runs under — fixed from
  /// SchedulerOptions, or the planner's per-attempt choice at start time.
  /// Completion/kill accounting must use this copy: an adaptive planner
  /// may hand later attempts a different policy.
  CheckpointPolicy policy{};
};

/// Running-job ledger of one machine, ordered by completion time, plus
/// the fault bookkeeping (down nodes and offline node-seconds).
struct MachineState {
  int total = 0;
  int free = 0;
  int down = 0;
  double down_last_change = 0.0;
  double down_node_seconds = 0.0;
  std::multimap<double, RunningJob> running;  ///< end time -> attempt

  /// Earliest time at which `nodes` can be free, and the projected free
  /// node count at that time. With nodes down this can be unreachable
  /// (kNoEvent) until a repair restores capacity.
  [[nodiscard]] std::pair<double, int> earliest_fit(double now, int nodes) const {
    if (free >= nodes) return {now, free};
    int projected = free;
    for (const auto& [end, rj] : running) {
      projected += rj.nodes;
      if (projected >= nodes) return {end, projected};
    }
    return {kNoEvent, projected};
  }

  [[nodiscard]] double next_completion() const noexcept {
    return running.empty() ? kNoEvent : running.begin()->first;
  }

  /// Accrues offline node-seconds up to `t`; call before `down` changes.
  void settle_downtime(double t) noexcept {
    down_node_seconds += (t - down_last_change) * static_cast<double>(down);
    down_last_change = t;
  }
};

/// Where a job's running ledger entry lives, when it is running.
struct RunningRef {
  bool active = false;
  std::size_t machine = 0;
  std::multimap<double, RunningJob>::iterator where;
};

/// Intrusive FCFS queue over job indices, as one list per size class: a
/// distinct (width, lane) pair, the lane being the assigner's
/// (MachineAssigner::lane). A monotone sequence number stamped on every
/// push gives the exact FCFS order (resubmissions re-enter at the back).
/// Each class list is in that order, so the head is the lowest class
/// head, and the backfill pass merges only the classes the assigner could
/// still start instead of walking every queued job. A ranked queue also
/// keeps per-lane Fenwick counts over sequence numbers (a prefix-count
/// array), so the pass can count the queued jobs of each lane between two
/// sequence numbers in O(log n). A job is in the queue at most once at a time (queued ->
/// running -> pending -> queued), which is what makes the intrusive
/// per-job links sound.
class FcfsQueue {
 public:
  static constexpr std::size_t kNull = std::numeric_limits<std::size_t>::max();
  /// A sequence-number bound past every job.
  static constexpr std::uint64_t kEndless = std::numeric_limits<std::uint64_t>::max();

  /// Sizes the per-job link arrays, caches each job's lane and discovers
  /// the size classes. Call after assigner.prime().
  void init(const std::vector<Job>& jobs, const MachineAssigner& assigner, bool ranked) {
    const std::size_t n = jobs.size();
    lane_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lane = assigner.lane(jobs[i]);
      MPHPC_EXPECTS(lane < kAssignLanes);
      lane_[i] = static_cast<std::uint8_t>(lane);
    }
    lane_size_ = {};
    wnext_.assign(n, kNull);
    wprev_.assign(n, kNull);
    seq_.assign(n, 0);
    cls_.assign(n, 0);
    classes_.clear();
    int max_width = 0;
    for (const Job& job : jobs) max_width = std::max(max_width, job.nodes_required);
    std::vector<std::size_t> slot((static_cast<std::size_t>(max_width) + 1) * kAssignLanes,
                                  kNull);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t key =
          static_cast<std::size_t>(jobs[i].nodes_required) * kAssignLanes + lane_[i];
      if (slot[key] == kNull) {
        slot[key] = classes_.size();
        classes_.push_back({jobs[i].nodes_required, lane_[i], kNull, kNull});
      }
      cls_[i] = slot[key];
    }
    // Index 0 is unused; the capacity (size - 1) stays a power of two.
    ranks_.assign(ranked ? std::bit_ceil(std::max<std::size_t>(n, 1)) + 1 : 0, Ranks{});
    size_ = 0;
    seq_counter_ = 0;
  }

  void push_back(std::size_t j) {
    MPHPC_ASSERT(j < wnext_.size());
    seq_[j] = seq_counter_++;
    Class& c = classes_[cls_[j]];
    wprev_[j] = c.tail;
    wnext_[j] = kNull;
    if (c.tail == kNull) c.head = j; else wnext_[c.tail] = j;
    c.tail = j;
    if (!ranks_.empty()) {
      if (seq_[j] + 1 >= ranks_.size()) grow_ranks();
      add_rank(j, 1);
    }
    ++size_;
    ++lane_size_[lane_[j]];
  }

  void erase(std::size_t j) {
    MPHPC_ASSERT(j < wnext_.size() && size_ > 0);
    Class& c = classes_[cls_[j]];
    if (wprev_[j] == kNull) c.head = wnext_[j]; else wnext_[wprev_[j]] = wnext_[j];
    if (wnext_[j] == kNull) c.tail = wprev_[j]; else wprev_[wnext_[j]] = wprev_[j];
    if (!ranks_.empty()) add_rank(j, -1);
    --size_;
    --lane_size_[lane_[j]];
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// The FCFS head: the lowest sequence number among the class heads.
  [[nodiscard]] std::size_t front() const noexcept {
    std::size_t head = kNull;
    for (const Class& c : classes_) {
      if (c.head != kNull && (head == kNull || seq_[c.head] < seq_[head])) head = c.head;
    }
    return head;
  }
  [[nodiscard]] std::uint64_t seq(std::size_t j) const noexcept { return seq_[j]; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }
  [[nodiscard]] int class_width(std::size_t c) const noexcept {
    return classes_[c].width;
  }
  [[nodiscard]] std::size_t class_lane(std::size_t c) const noexcept {
    return classes_[c].lane;
  }
  [[nodiscard]] std::size_t class_head(std::size_t c) const noexcept {
    return classes_[c].head;
  }
  [[nodiscard]] std::size_t wnext(std::size_t j) const noexcept { return wnext_[j]; }
  /// Queued jobs per lane.
  [[nodiscard]] const LaneCounts& lane_sizes() const noexcept { return lane_size_; }

  /// Queued jobs per lane with a sequence number below `seq` (ranked
  /// queues only).
  [[nodiscard]] LaneCounts count_below(std::uint64_t seq) const noexcept {
    MPHPC_ASSERT(!ranks_.empty());
    if (seq >= ranks_.size() - 1) return lane_size_;
    LaneCounts counts{};
    for (auto i = static_cast<std::size_t>(seq); i > 0; i &= i - 1) {
      for (std::size_t l = 0; l < kAssignLanes; ++l) counts[l] += ranks_[i][l];
    }
    return counts;
  }

  /// One past the sequence number of the `k`-th queued job after `seq`,
  /// over all lanes, or kEndless when fewer are queued (ranked queues
  /// only): a Fenwick descent.
  [[nodiscard]] std::uint64_t end_after(std::uint64_t seq, std::size_t k) const noexcept {
    const LaneCounts before = count_below(seq + 1);
    std::size_t want = k;
    for (const std::size_t c : before) want += c;
    if (want > size_) return kEndless;
    const std::size_t capacity = ranks_.size() - 1;
    std::size_t pos = 0;
    for (std::size_t step = capacity; step > 0; step >>= 1) {
      if (pos + step > capacity) continue;
      std::size_t here = 0;
      for (const std::uint32_t c : ranks_[pos + step]) here += c;
      if (here < want) {
        pos += step;
        want -= here;
      }
    }
    // Fenwick index pos + 1 holds the job, so its sequence number is pos.
    return pos + 1;
  }

 private:
  struct Class {
    int width = 0;
    std::size_t lane = 0;
    std::size_t head = kNull;
    std::size_t tail = kNull;
  };
  using Ranks = std::array<std::uint32_t, kAssignLanes>;

  /// Adds `delta` to job j's lane at its sequence number.
  void add_rank(std::size_t j, int delta) noexcept {
    for (auto i = static_cast<std::size_t>(seq_[j]) + 1; i < ranks_.size(); i += i & -i) {
      ranks_[i][lane_[j]] += static_cast<std::uint32_t>(delta);
    }
  }

  /// Doubles the capacity. Every queued sequence number lies below the
  /// old capacity, so the new top node holds the lane totals and the
  /// nodes between the two capacities start empty.
  void grow_ranks() {
    const std::size_t capacity = ranks_.size() - 1;
    ranks_.resize(2 * capacity + 1, Ranks{});
    for (std::size_t l = 0; l < kAssignLanes; ++l) {
      ranks_[2 * capacity][l] = static_cast<std::uint32_t>(lane_size_[l]);
    }
  }

  std::vector<std::size_t> wnext_, wprev_;  // per-class list
  std::vector<std::uint64_t> seq_;
  std::vector<std::size_t> cls_;  // job -> class slot
  std::vector<Class> classes_;
  std::vector<std::uint8_t> lane_;  // job -> assigner lane
  std::vector<Ranks> ranks_;        // Fenwick counts, index = seq + 1
  LaneCounts lane_size_{};
  std::size_t size_ = 0;
  std::uint64_t seq_counter_ = 0;
};

/// Everything the two engines share: construction contracts, the event
/// loop skeleton, job start/completion/kill accounting, node-fault
/// replay, and result finalization. The derived engine supplies only the
/// event containers and the backfill scan, via CRTP hooks:
///   init_queues, queue_push_back, queue_empty, push_release, push_kill,
///   next_kill_time, next_release_time, process_kills, release_pending,
///   schedule_pass.
/// Keeping the accounting here (and branching on the *attempt's* policy,
/// not on global options) is what makes the engines bit-identical — e.g.
/// a disabled policy must credit (end - start) node-seconds, which is not
/// bitwise equal to `work` after the now + work round trip.
template <typename Derived>
class EngineBase {
 public:
  EngineBase(const std::vector<Job>& jobs, const std::vector<Machine>& machines,
             MachineAssigner& assigner, const FaultTrace& faults,
             const SchedulerOptions& options)
      : jobs_(jobs),
        assigner_(assigner),
        faults_(faults),
        checkpoint_(options.checkpoint),
        planner_(options.planner),
        depth_limit_(options.backfill_depth == 0 ? std::numeric_limits<int>::max()
                                                 : options.backfill_depth),
        view_(machines, free_nodes_) {
    MPHPC_EXPECTS(!machines.empty());
    MPHPC_EXPECTS(options.backfill_depth >= 0);
    MPHPC_EXPECTS(options.checkpoint.interval_s >= 0.0);
    MPHPC_EXPECTS(options.checkpoint.overhead_s >= 0.0);
    MPHPC_EXPECTS(faults.retry.max_attempts >= 1);
    MPHPC_EXPECTS(faults.kill_probability >= 0.0 && faults.kill_probability <= 1.0);
    for (const Machine& m : machines) {
      auto& s = state_[static_cast<std::size_t>(m.id)];
      s.total = m.total_nodes;
      s.free = m.total_nodes;
      free_nodes_[static_cast<std::size_t>(m.id)] = m.total_nodes;
    }
    for (const Job& job : jobs_) {
      for (const Machine& m : machines) {
        MPHPC_EXPECTS(job.nodes_required <= m.total_nodes);
      }
      MPHPC_EXPECTS(job.nodes_required >= 1);
      MPHPC_EXPECTS(job.submit_s >= 0.0);
    }
  }

  [[nodiscard]] SimulationResult run() {
    // One pass over the job list lets order-memoizing assigners cache
    // each job's machine preference before any scheduling decision.
    assigner_.prime(jobs_);
    if (planner_ != nullptr) {
      int total = 0;
      for (const auto& s : state_) total += s.total;
      planner_->begin(total);
    }
    result_.outcomes.resize(jobs_.size());
    attempts_.assign(jobs_.size(), 0);
    saved_fraction_.assign(jobs_.size(), 0.0);
    running_ref_.resize(jobs_.size());
    self().init_queues();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].submit_s <= 0.0) {
        self().queue_push_back(i);
      } else {
        self().push_release(jobs_[i].submit_s, i);
      }
    }

    double now = 0.0;
    self().schedule_pass(now);
    while (finalized_ < jobs_.size()) {
      const double next = next_event_time();
      // Repairs are paired with failures, so capacity (and thus progress)
      // always returns; an infinite next event would be an engine bug.
      MPHPC_ASSERT(next != kNoEvent);
      now = next;
      process_completions(now);
      self().process_kills(now);
      process_node_events(now);
      self().release_pending(now);
      self().schedule_pass(now);
    }
    MPHPC_ENSURES(self().queue_empty());
    finalize_result();
    return std::move(result_);
  }

 protected:
  [[nodiscard]] Derived& self() noexcept { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& self() const noexcept {
    return static_cast<const Derived&>(*this);
  }

  void start_job(std::size_t job_index, arch::SystemId m, double now) {
    const Job& job = jobs_[job_index];
    const auto mi = static_cast<std::size_t>(m);
    auto& s = state_[mi];
    const double runtime = job.runtime[mi];
    MPHPC_EXPECTS(runtime > 0.0 && s.free >= job.nodes_required);
    const CheckpointPolicy policy =
        planner_ != nullptr ? planner_->policy_for(job, now) : checkpoint_;
    MPHPC_ASSERT(policy.interval_s >= 0.0 && policy.overhead_s >= 0.0);
    // A resumed attempt only redoes the work past its last checkpoint.
    // Progress is tracked as a fraction of the job so a retry assigned to
    // a *different* machine (different runtime) resumes proportionally.
    // Checkpoints never land exactly at completion, so the saved fraction
    // is strictly below 1 and `work` stays positive. With no policy and no
    // saved progress: work == runtime with the same bits — the
    // restart-from-zero arithmetic is untouched. (The saved-fraction
    // disjunct matters under a planner that disables checkpointing for a
    // later attempt of a job with durable progress: that progress must
    // still be honoured.)
    const double work = policy.enabled() || saved_fraction_[job_index] > 0.0
                            ? runtime * (1.0 - saved_fraction_[job_index])
                            : runtime;
    MPHPC_ASSERT(work > 0.0);
    const double duration = policy.attempt_duration(work);
    s.free -= job.nodes_required;
    free_nodes_[mi] = s.free;
    const int attempt = ++attempts_[job_index];
    const auto it = s.running.emplace(
        now + duration,
        RunningJob{job_index, job.nodes_required, now, now + duration, work, policy});
    running_ref_[job_index] = {true, mi, it};
    result_.outcomes[job_index] = {m, now, now + duration, job.submit_s, attempt, false};
    if (faults_.kill_probability > 0.0) {
      // Per-attempt draw from its own derived stream, so kill decisions
      // are independent of scheduling order and machine choice.
      Rng rng(derive_seed(faults_.seed, "job-kill",
                          static_cast<std::uint64_t>(job.id),
                          static_cast<std::uint64_t>(attempt)));
      if (rng.bernoulli(faults_.kill_probability)) {
        self().push_kill(now + rng.uniform() * duration, job_index, attempt);
      }
    }
    ++started_count_;
  }

  [[nodiscard]] double next_event_time() const {
    double next = kNoEvent;
    for (const auto& s : state_) next = std::min(next, s.next_completion());
    next = std::min(next, self().next_kill_time());
    if (trace_pos_ < faults_.events.size()) {
      next = std::min(next, faults_.events[trace_pos_].time_s);
    }
    next = std::min(next, self().next_release_time());
    return next;
  }

  void process_completions(double now) {
    for (std::size_t mi = 0; mi < state_.size(); ++mi) {
      auto& s = state_[mi];
      while (!s.running.empty() && s.running.begin()->first <= now) {
        const RunningJob rj = s.running.begin()->second;
        s.free += rj.nodes;
        s.running.erase(s.running.begin());
        running_ref_[rj.job].active = false;
        if (rj.policy.enabled()) {
          // Split the occupied span into committed work and checkpoint
          // overhead so utilization counts real progress only.
          const long long written = rj.policy.checkpoints_during(rj.work);
          result_.node_seconds[mi] += rj.work * static_cast<double>(rj.nodes);
          result_.checkpoint_overhead_node_seconds[mi] +=
              static_cast<double>(written) * rj.policy.overhead_s *
              static_cast<double>(rj.nodes);
          result_.checkpoints_written += written;
        } else {
          result_.node_seconds[mi] += (rj.end - rj.start) * static_cast<double>(rj.nodes);
        }
        ++result_.completed_jobs;
        ++finalized_;
      }
      free_nodes_[mi] = s.free;
    }
  }

  /// Kills the running attempt of `job_index` at time `t`, returning its
  /// nodes to the free pool and either resubmitting the job with backoff
  /// or abandoning it once the retry budget is spent.
  void kill_running_job(std::size_t job_index, double t) {
    RunningRef& ref = running_ref_[job_index];
    MPHPC_ASSERT(ref.active);
    auto& s = state_[ref.machine];
    const RunningJob rj = ref.where->second;
    if (rj.policy.enabled()) {
      const auto account = rj.policy.account_kill(t - rj.start, rj.work);
      saved_fraction_[job_index] +=
          account.saved_work_s / jobs_[job_index].runtime[ref.machine];
      const auto nodes = static_cast<double>(rj.nodes);
      result_.recovered_node_seconds[ref.machine] += account.saved_work_s * nodes;
      result_.lost_node_seconds[ref.machine] += account.lost_work_s * nodes;
      result_.checkpoint_overhead_node_seconds[ref.machine] +=
          account.overhead_paid_s * nodes;
      result_.checkpoints_written += account.checkpoints;
    } else {
      result_.lost_node_seconds[ref.machine] +=
          (t - rj.start) * static_cast<double>(rj.nodes);
    }
    s.running.erase(ref.where);
    ref.active = false;
    s.free += rj.nodes;
    free_nodes_[ref.machine] = s.free;
    ++result_.jobs_killed;

    JobOutcome& outcome = result_.outcomes[job_index];
    outcome.end_s = t;
    if (attempts_[job_index] >= faults_.retry.max_attempts) {
      outcome.abandoned = true;
      ++result_.abandoned_jobs;
      ++finalized_;
      return;
    }
    Rng rng(derive_seed(faults_.seed, "retry-jitter",
                        static_cast<std::uint64_t>(jobs_[job_index].id),
                        static_cast<std::uint64_t>(attempts_[job_index])));
    const double delay = faults_.retry.delay_s(attempts_[job_index], rng.uniform());
    self().push_release(t + delay, job_index);
    ++result_.total_retries;
  }

  void process_node_events(double now) {
    while (trace_pos_ < faults_.events.size() &&
           faults_.events[trace_pos_].time_s <= now) {
      const NodeEvent& event = faults_.events[trace_pos_++];
      const auto mi = static_cast<std::size_t>(event.machine);
      auto& s = state_[mi];
      if (event.delta < 0) {
        if (s.free == 0) {
          if (s.running.empty()) continue;  // machine already fully down
          // No idle node to take: the failure lands on an allocated one.
          // Kill the latest-finishing attempt (it has the least work to
          // lose per remaining second); its nodes return to the pool.
          kill_running_job(std::prev(s.running.end())->second.job, event.time_s);
        }
        MPHPC_ASSERT(s.free > 0);
        // Adaptive planners learn the failure rate online, strictly in
        // simulated-time order. Dropped events (machine fully down and
        // idle) are never observed — they removed no capacity.
        if (planner_ != nullptr) planner_->observe_node_failure(event.time_s);
        s.settle_downtime(event.time_s);
        ++s.down;
        --s.free;
      } else {
        MPHPC_ASSERT(s.down > 0);
        s.settle_downtime(event.time_s);
        --s.down;
        ++s.free;
      }
      free_nodes_[mi] = s.free;
    }
  }

  void finalize_result() {
    std::size_t completed = 0;
    for (const JobOutcome& o : result_.outcomes) {
      // Job state-machine invariant: submitted -> started -> finalized, so
      // every outcome runs forward in time on a real machine (an abandoned
      // attempt may be killed the instant it starts).
      MPHPC_ENSURES(o.start_s >= 0.0 &&
                    (o.abandoned ? o.end_s >= o.start_s : o.end_s > o.start_s));
      result_.makespan_s = std::max(result_.makespan_s, o.end_s);
      if (!o.abandoned) {
        result_.avg_wait_s += o.wait_s();
        ++completed;
      }
    }
    result_.avg_wait_s /= static_cast<double>(completed == 0 ? 1 : completed);
    result_.avg_bounded_slowdown = average_bounded_slowdown(result_.outcomes);
    for (std::size_t mi = 0; mi < state_.size(); ++mi) {
      auto& s = state_[mi];
      if (result_.makespan_s > s.down_last_change) {
        s.settle_downtime(result_.makespan_s);
      }
      result_.downtime_node_seconds[mi] = s.down_node_seconds;
    }
    MPHPC_ENSURES(result_.completed_jobs + result_.abandoned_jobs == jobs_.size());
  }

  const std::vector<Job>& jobs_;
  MachineAssigner& assigner_;
  const FaultTrace& faults_;
  const CheckpointPolicy checkpoint_;
  CheckpointPlanner* const planner_;
  const int depth_limit_;

  std::array<MachineState, arch::kNumSystems> state_{};
  std::array<int, arch::kNumSystems> free_nodes_{};
  const ClusterView view_;

  std::vector<int> attempts_;
  /// Per-job fraction of total progress durably checkpointed across
  /// killed attempts; the next attempt on machine m resumes with
  /// runtime[m] * (1 - saved_fraction_) of work remaining (a fraction,
  /// not seconds, so resuming on a different machine scales correctly).
  std::vector<double> saved_fraction_;
  std::vector<RunningRef> running_ref_;
  std::size_t trace_pos_ = 0;
  std::size_t started_count_ = 0;
  std::size_t finalized_ = 0;
  SimulationResult result_;
};

/// The original binary-heap + std::list engine, kept verbatim as the
/// golden oracle for the calendar engine (SimEngineKind::kReference).
/// Every queue operation and backfill visit matches the pre-calendar
/// implementation exactly; equivalence tests pin the calendar engine's
/// results to this one bit-for-bit.
class ReferenceEngine final : public EngineBase<ReferenceEngine> {
  friend class EngineBase<ReferenceEngine>;

 public:
  using EngineBase<ReferenceEngine>::EngineBase;

 private:
  void init_queues() {}
  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  void queue_push_back(std::size_t i) { queue_.push_back(i); }
  void push_release(double t, std::size_t i) { pending_.emplace(t, i); }
  void push_kill(double t, std::size_t i, int attempt) {
    kills_.emplace(t, i, attempt);
  }
  [[nodiscard]] double next_kill_time() const {
    return kills_.empty() ? kNoEvent : std::get<0>(kills_.top());
  }
  [[nodiscard]] double next_release_time() const {
    return pending_.empty() ? kNoEvent : pending_.top().first;
  }

  void process_kills(double now) {
    while (!kills_.empty() && std::get<0>(kills_.top()) <= now) {
      const auto [t, job_index, attempt] = kills_.top();
      kills_.pop();
      // Stale entries: the attempt already completed, or was killed first
      // by a node failure (possibly restarted since).
      if (!running_ref_[job_index].active || attempts_[job_index] != attempt) continue;
      kill_running_job(job_index, t);
    }
  }

  void release_pending(double now) {
    while (!pending_.empty() && pending_.top().first <= now) {
      // Resubmissions join the back of the FCFS queue: a killed job loses
      // its queue position, as in production schedulers.
      queue_.push_back(pending_.top().second);
      pending_.pop();
    }
  }

  // One scheduling pass at time `now` (Algorithm 1 body), with the
  // original full linear rescan of the queue.
  void schedule_pass(double now) {
    while (!queue_.empty()) {
      const std::size_t head = queue_.front();
      const arch::SystemId m = assigner_.assign(jobs_[head], started_count_, view_);
      const auto mi = static_cast<std::size_t>(m);
      if (state_[mi].free >= jobs_[head].nodes_required) {
        start_job(head, m, now);
        queue_.pop_front();
        continue;
      }

      // Head is blocked: reserve it at the shadow time on its machine.
      const auto [shadow_time, projected_free] =
          state_[mi].earliest_fit(now, jobs_[head].nodes_required);
      // Nodes left over at the shadow time once the head's reservation is
      // honoured; backfills running past the shadow may consume these.
      int shadow_spare = projected_free - jobs_[head].nodes_required;

      // Nothing can backfill while no machine has a free node.
      int max_free = 0;
      for (const auto& s : state_) max_free = std::max(max_free, s.free);
      if (max_free == 0) break;

      int scanned = 0;
      for (auto it = std::next(queue_.begin());
           it != queue_.end() && scanned < depth_limit_; ++scanned) {
        const std::size_t cand = *it;
        const Job& job = jobs_[cand];
        const arch::SystemId cm = assigner_.assign(job, started_count_, view_);
        const auto ci = static_cast<std::size_t>(cm);
        if (state_[ci].free < job.nodes_required) {
          ++it;
          continue;
        }
        if (cm != m) {
          start_job(cand, cm, now);
          it = queue_.erase(it);
          continue;
        }
        // Same machine as the reservation: must not delay the head.
        const double end = now + job.runtime[ci];
        if (end <= shadow_time) {
          start_job(cand, cm, now);
          it = queue_.erase(it);
        } else if (shadow_spare >= job.nodes_required) {
          shadow_spare -= job.nodes_required;
          start_job(cand, cm, now);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      break;  // head stays blocked until the next event
    }
  }

  std::list<std::size_t> queue_;
  /// (release time, job) resubmissions and deferred submits, time-ordered;
  /// ties release in job-index order for determinism.
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      pending_;
  /// (kill time, job, attempt) pre-drawn random kills; stale entries are
  /// skipped when the attempt no longer runs.
  std::priority_queue<std::tuple<double, std::size_t, int>,
                      std::vector<std::tuple<double, std::size_t, int>>,
                      std::greater<>>
      kills_;
};

/// The production engine (SimEngineKind::kCalendar): calendar queues for
/// releases and kills, and a class-indexed FCFS queue so backfill skips
/// whole size classes the assigner cannot start
/// (MachineAssigner::startable_width). Three kinds of assigner share one
/// backfill pass: a stateless assigner has the candidates that could only
/// be rejected skipped outright; one that replays rejected calls
/// (MachineAssigner::skip_rejected) has them counted and replayed before
/// its next real call; any other has every candidate assigned, in the
/// reference engine's order.
class CalendarEngine final : public EngineBase<CalendarEngine> {
  friend class EngineBase<CalendarEngine>;

 public:
  using EngineBase<CalendarEngine>::EngineBase;

 private:
  void init_queues() {
    // Must be read after prime(): GuardedModelBasedAssigner only knows
    // whether every job takes the pure model path once primed.
    stateless_ = assigner_.stateless_assign();
    // Zero counts make the probe a no-op that only reports support.
    replay_ = !stateless_ && assigner_.skip_rejected(LaneCounts{});
    queue_.init(jobs_, assigner_, replay_);
  }
  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  void queue_push_back(std::size_t i) { queue_.push_back(i); }
  void push_release(double t, std::size_t i) {
    pending_.push({t, kReleaseEvent, static_cast<std::uint64_t>(i), 0});
  }
  void push_kill(double t, std::size_t i, int attempt) {
    kills_.push({t, kKillEvent, static_cast<std::uint64_t>(i),
                 static_cast<std::uint64_t>(attempt)});
  }
  [[nodiscard]] double next_kill_time() const { return kills_.next_time(); }
  [[nodiscard]] double next_release_time() const { return pending_.next_time(); }

  void process_kills(double now) {
    while (!kills_.empty() && kills_.next_time() <= now) {
      const SimEvent e = kills_.pop_front();
      const auto job_index = static_cast<std::size_t>(e.seq);
      const int attempt = static_cast<int>(e.sub);
      // Stale entries: the attempt already completed, or was killed first
      // by a node failure (possibly restarted since).
      if (!running_ref_[job_index].active || attempts_[job_index] != attempt) continue;
      kill_running_job(job_index, e.time_s);
    }
  }

  void release_pending(double now) {
    while (!pending_.empty() && pending_.next_time() <= now) {
      // Resubmissions join the back of the FCFS queue: a killed job loses
      // its queue position, as in production schedulers.
      queue_.push_back(static_cast<std::size_t>(pending_.pop_front().seq));
    }
  }

  /// Marks each cursor's class as admitted, when it is no wider than its
  /// lane's startable width on some machine
  /// (MachineAssigner::startable_width), and as in the shadow window: a
  /// lane's wider jobs can start only on the head's machine, and only if
  /// they end by the head's shadow time, when they are wider than every
  /// other machine's startable width and than the nodes spare at the
  /// shadow time. An assigner that neither is stateless nor replays keeps
  /// every class admitted and none in the window: each candidate's call
  /// must happen.
  void classify_cursors(arch::SystemId head_machine, int shadow_spare) {
    if (!stateless_ && !replay_) return;
    std::array<int, kAssignLanes> any{};
    std::array<int, kAssignLanes> open{};
    for (std::size_t l = 0; l < kAssignLanes; ++l) {
      if (queue_.lane_sizes()[l] == 0) continue;
      int other = 0;
      for (const Machine& x : view_.machines()) {
        const int w = assigner_.startable_width(started_count_, view_, l, x.id);
        any[l] = std::max(any[l], w);
        if (x.id != head_machine) other = std::max(other, w);
      }
      open[l] = std::max(other, shadow_spare);
    }
    for (Cursor& cur : cursors_) {
      const int width = queue_.class_width(cur.cls);
      const std::size_t lane = queue_.class_lane(cur.cls);
      cur.admitted = width <= any[lane];
      cur.windowed = width > open[lane];
    }
  }

  /// One scheduling pass at time `now` (Algorithm 1 body). The backfill
  /// merges the class sublists by FCFS sequence number, visiting only
  /// candidates some machine could take: classes no wider than their
  /// lane's startable width, and in the shadow window only jobs that end
  /// by the head's shadow time. Every skipped candidate would have been
  /// assigned and then rejected. The bound is recomputed after every
  /// start and may grow (Round-Robin's target machine rotates), so each
  /// class keeps its cursor for the whole pass and, once eligible again,
  /// catches up past the last visited sequence number: visits stay in
  /// strict FCFS order and never revisit a job.
  ///
  /// Shadow window: the late-ending test depends on the pass alone, so a
  /// window class's `hit` cursor steps over the failing jobs once per
  /// pass without an assign() call or a merge step. Which classes are in
  /// the window changes on every start, so `at` never passes an unvisited
  /// job: a class leaving the window resumes at the first sequence number
  /// above `last`.
  ///
  /// The depth budget: a stateless assigner counts only the visited
  /// candidates and the window jobs stepped over before each, where the
  /// merge would have visited them. A replaying assigner counts every
  /// queued candidate, as the reference engine does, so the pass ends at
  /// the depth-th queued job after the head, found by a Fenwick descent
  /// at the start of the pass (a candidate's position is its rank among
  /// the queued jobs plus the backfills started before it, which is fixed
  /// for the pass). Before each real call, and once at the end, the
  /// queued jobs of each lane since the previous visit are counted and
  /// replayed in one skip_rejected() call.
  void schedule_pass(double now) {
    constexpr std::size_t kNull = FcfsQueue::kNull;
    while (!queue_.empty()) {
      const std::size_t head = queue_.front();
      const arch::SystemId m = assigner_.assign(jobs_[head], started_count_, view_);
      const auto mi = static_cast<std::size_t>(m);
      if (state_[mi].free >= jobs_[head].nodes_required) {
        start_job(head, m, now);
        queue_.erase(head);
        continue;
      }

      const auto [shadow_time, projected_free] =
          state_[mi].earliest_fit(now, jobs_[head].nodes_required);
      int shadow_spare = projected_free - jobs_[head].nodes_required;
      const auto ends_late = [&](std::size_t j) {
        return now + jobs_[j].runtime[mi] > shadow_time;
      };

      // Nothing can backfill while no machine has a free node: no call
      // is made or replayed.
      int max_free = 0;
      for (const auto& s : state_) max_free = std::max(max_free, s.free);
      if (max_free == 0) break;

      // One cursor per size class. The head has the lowest live sequence
      // number, so starting `last` at it makes the catch-up skip it too.
      cursors_.clear();
      for (std::size_t c = 0; c < queue_.num_classes(); ++c) {
        const std::size_t at = queue_.class_head(c);
        if (at != kNull) cursors_.push_back({c, at, at, 0, true, false});
      }
      classify_cursors(m, shadow_spare);
      std::uint64_t last = queue_.seq(head);
      // Replaying: candidates from `end` on lie past the depth budget.
      const std::uint64_t end =
          replay_ && depth_limit_ < std::numeric_limits<int>::max()
              ? queue_.end_after(last, static_cast<std::size_t>(depth_limit_))
              : FcfsQueue::kEndless;
      const auto replay_until = [&](std::uint64_t until) {
        LaneCounts skipped = queue_.count_below(until);
        const LaneCounts visited = queue_.count_below(last + 1);
        for (std::size_t l = 0; l < kAssignLanes; ++l) skipped[l] -= visited[l];
        if (skipped == LaneCounts{}) return;
        const bool replayed = assigner_.skip_rejected(skipped);
        MPHPC_ASSERT(replayed);
      };

      long long scanned = 0;
      while (true) {
        // Lowest-sequence candidate before `end` among the admitted
        // classes; exhausted cursors are dropped for good.
        const long long remaining = replay_ ? std::numeric_limits<long long>::max()
                                            : depth_limit_ - scanned;
        std::size_t best = 0;
        std::size_t cand = kNull;
        std::uint64_t cand_seq = end;
        for (std::size_t k = 0; k < cursors_.size();) {
          Cursor& cur = cursors_[k];
          if (!cur.admitted) {
            ++k;
            continue;
          }
          while (cur.at != kNull && queue_.seq(cur.at) <= last) cur.step(queue_);
          if (cur.at == kNull) {
            cur = cursors_.back();
            cursors_.pop_back();
            continue;
          }
          std::size_t next = cur.at;
          if (cur.windowed) {
            // A job behind `remaining` late jobs of its own class lies
            // past the depth budget, so the walk stops there.
            while (cur.hit != kNull && cur.gap < remaining &&
                   (end == FcfsQueue::kEndless || queue_.seq(cur.hit) < end) &&
                   ends_late(cur.hit)) {
              cur.hit = queue_.wnext(cur.hit);
              ++cur.gap;
            }
            next = cur.gap < remaining ? cur.hit : kNull;
          }
          if (next != kNull && queue_.seq(next) < cand_seq) {
            best = k;
            cand = next;
            cand_seq = queue_.seq(next);
          }
          ++k;
        }
        if (cand == kNull) break;

        if (replay_) {
          replay_until(cand_seq);
        } else {
          // Window jobs ahead of `cand` are visits that could only be
          // rejected; each spends one unit of the depth budget.
          long long passed = 0;
          for (Cursor& cur : cursors_) {
            if (!cur.admitted || !cur.windowed) continue;
            while (cur.at != kNull && queue_.seq(cur.at) < cand_seq &&
                   scanned + passed < depth_limit_) {
              cur.step(queue_);
              ++passed;
            }
          }
          if (scanned + passed >= depth_limit_) break;
          scanned += passed + 1;
        }
        last = cand_seq;
        // Move the chosen class past `cand` and any window jobs before it.
        Cursor& chosen = cursors_[best];
        while (chosen.at != cand) chosen.step(queue_);
        chosen.step(queue_);

        const Job& job = jobs_[cand];
        const arch::SystemId cm = assigner_.assign(job, started_count_, view_);
        const auto ci = static_cast<std::size_t>(cm);
        if (state_[ci].free < job.nodes_required) continue;
        bool started = false;
        if (cm != m) {
          started = true;
        } else {
          // Same machine as the reservation: must not delay the head.
          const double job_end = now + job.runtime[ci];
          if (job_end <= shadow_time) {
            started = true;
          } else if (shadow_spare >= job.nodes_required) {
            shadow_spare -= job.nodes_required;
            started = true;
          }
        }
        if (!started) continue;
        start_job(cand, cm, now);
        queue_.erase(cand);
        classify_cursors(m, shadow_spare);
      }
      if (replay_) replay_until(end);
      break;  // head stays blocked until the next event
    }
  }

  struct Cursor {
    std::size_t cls = 0;
    std::size_t at = 0;   ///< no job of the class before it is left to visit
    std::size_t hit = 0;  ///< at or after `at`; every job in [at, hit) ends late
    long long gap = 0;    ///< jobs in [at, hit)
    bool admitted = true;   ///< the bound admits the class
    bool windowed = false;  ///< the class is in the shadow window

    /// Moves `at` one job on, keeping `hit` at or after it.
    void step(const FcfsQueue& queue) noexcept {
      if (hit == at) {
        hit = queue.wnext(at);
      } else {
        --gap;
      }
      at = queue.wnext(at);
    }
  };

  FcfsQueue queue_;
  CalendarQueue pending_;
  CalendarQueue kills_;
  std::vector<Cursor> cursors_;  // scratch, reused across passes
  bool stateless_ = false;
  bool replay_ = false;  // rejected calls are counted and replayed in bulk
};

}  // namespace

SimulationResult simulate(const std::vector<Job>& jobs,
                          const std::vector<Machine>& machines,
                          MachineAssigner& assigner, const SchedulerOptions& options) {
  return simulate(jobs, machines, assigner, FaultTrace::none(), options);
}

SimulationResult simulate(const std::vector<Job>& jobs,
                          const std::vector<Machine>& machines,
                          MachineAssigner& assigner, const FaultTrace& faults,
                          const SchedulerOptions& options) {
  if (options.engine == SimEngineKind::kReference) {
    ReferenceEngine engine(jobs, machines, assigner, faults, options);
    return engine.run();
  }
  CalendarEngine engine(jobs, machines, assigner, faults, options);
  return engine.run();
}

double average_bounded_slowdown(const std::vector<JobOutcome>& outcomes, double tau) {
  MPHPC_EXPECTS(tau > 0.0);
  double sum = 0.0;
  std::size_t completed = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.abandoned) continue;  // never finished: slowdown is undefined
    const double run = o.run_s();
    const double slowdown = (o.wait_s() + run) / std::max(run, tau);
    sum += std::max(slowdown, 1.0);
    ++completed;
  }
  if (completed == 0) return 0.0;  // e.g. faults abandoned every job
  return sum / static_cast<double>(completed);
}

}  // namespace mphpc::sched
