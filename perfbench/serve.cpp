// serve_mixed: JSONL traffic against `mphpc serve` child processes. One
// generator thread sends every request at its due time over one
// Unix-socket connection, and one reader thread matches replies to
// requests by id (the predict and feedback lanes reorder them). One request in 16 is a feedback, so refits and hot swaps
// run beside the reads. Traffic runs at a fixed low rate, a fixed high
// rate, and closed-loop capacity bursts that find ops_per_s.
//
// trace_serve sends the fixed-rate phases, then replays the same request
// stream in-process through the serve library's public calls, one request
// at a time.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "arch/system_catalog.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/profiler.hpp"
#include "workload/app_catalog.hpp"
#include "workload/input_config.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mphpc;

namespace {

/// Every phase runs against a fresh daemon with its default settings,
/// which start a refit once 256 feedbacks are pending.
constexpr std::size_t kFeedbackEvery = 16;
/// A low-rate phase is 3008 requests carrying 188 feedbacks, short of a
/// refit: it measures the read path alone.
constexpr double kLowRps = 1000.0;
constexpr std::size_t kLowRequests = 3008;
/// Well under the mixed-traffic capacity of a 4-core host. A phase is
/// 6000 requests (1.2 s) carrying 375 feedbacks: a refit starts at the
/// 4096th request, beside the reads.
constexpr double kHighRps = 5000.0;
constexpr std::size_t kHighRequests = 6000;
/// A phase during which the hypervisor stole more than kMaxSteal of the
/// host's CPU time is re-run, up to kMaxAttempts attempts in all, and the
/// least-disturbed one kept.
constexpr int kMaxAttempts = 2;
/// Capacity bursts (ops_per_s): closed loop, kCapacityRequests requests
/// with at most kCapacityWindow in flight (a quarter of the daemon's
/// default queue, so nothing is shed). A burst carries 1024 feedbacks: one
/// refit runs beside the reads (a burst takes about 0.4 s on 4 vCPUs).
/// Longer bursts stack refits, each growing the model the reads walk, so
/// their rate depends on how many refits happened to finish.
constexpr std::size_t kCapacityRequests = 16384;
constexpr std::size_t kCapacityWindow = 256;
/// One connection, so the client adds only two threads (generator and
/// reader) to the daemon's on a 4-vCPU host; two connections measured the
/// same capacity.
constexpr int kConnections = 1;
constexpr double kReplyTimeoutS = 30.0;

// ---------------------------------------------------------------- corpus

/// Request lines are prefix + id digits + suffix; the op letter is part of
/// the prefix.
struct Template {
  std::string prefix;
  std::string suffix;
};

void profile_json(JsonWriter& w, const sim::RunProfile& p) {
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
}

Template make_template(const sim::RunProfile& p, const core::SystemTimes* times) {
  JsonWriter w;
  w.begin_object();
  w.field("op", times == nullptr ? "predict" : "feedback");
  w.field("id", "#");
  profile_json(w, p);
  if (times != nullptr) {
    w.begin_object("times");
    for (const arch::SystemId sys : arch::kAllSystems) {
      w.field(arch::to_string(sys), (*times)[static_cast<std::size_t>(sys)]);
    }
    w.end_object();
  }
  w.end_object();
  const std::string line = w.str();
  const std::size_t hole = line.find("\"#\"");
  return {line.substr(0, hole + 1) + (times == nullptr ? "p" : "f"),
          line.substr(hole + 2) + "\n"};
}

/// Fresh runs (not in the training campaign) profiled on every system at
/// every scale: a predict template per run, a feedback template per run
/// carrying all four measured times.
struct Corpus {
  std::vector<Template> predicts;
  std::vector<Template> feedbacks;
  std::uint64_t stream_seed = 0;

  /// Every kFeedbackEvery-th request is a feedback.
  [[nodiscard]] static bool is_feedback(std::size_t k) noexcept {
    return k % kFeedbackEvery == kFeedbackEvery - 1;
  }
  /// Request k: a seeded pick from its op's templates, with id k.
  [[nodiscard]] std::string line(std::size_t k) const {
    const auto& list = is_feedback(k) ? feedbacks : predicts;
    const Template& t = list[derive_seed(stream_seed, k) % list.size()];
    return t.prefix + std::to_string(k) + t.suffix;
  }
};

Corpus build_corpus(std::uint64_t seed) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const std::uint64_t corpus_seed = derive_seed(seed, "perfbench-serve-corpus");
  const sim::Profiler profiler(corpus_seed);
  Corpus corpus;
  corpus.stream_seed = derive_seed(seed, "perfbench-serve-stream");
  for (const workload::AppSignature& sig : apps.all()) {
    for (const auto& input : workload::make_inputs(sig, 3, corpus_seed)) {
      for (const workload::ScaleClass scale : workload::kAllScaleClasses) {
        core::SystemTimes times{};
        std::vector<sim::RunProfile> runs;
        for (const arch::SystemId sys : arch::kAllSystems) {
          runs.push_back(profiler.profile(sig, input, scale, systems.get(sys)));
          times[static_cast<std::size_t>(sys)] = runs.back().time_s;
        }
        for (const sim::RunProfile& run : runs) {
          corpus.predicts.push_back(make_template(run, nullptr));
          corpus.feedbacks.push_back(make_template(run, &times));
        }
      }
    }
  }
  return corpus;
}

// ---------------------------------------------------------------- daemon

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
  std::copy(path.begin(), path.end(), addr.sun_path);
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < timeout_s) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("daemon did not accept on " + path);
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// An `mphpc serve` child process. The destructor kills and reaps a child
/// that was not shut down cleanly.
class Daemon {
 public:
  Daemon(const std::string& mphpc, const std::string& state_dir,
         const std::string& model, const std::string& socket, const std::string& log) {
    const std::vector<std::string> argv_s = {
        mphpc,    "serve",  "--state-dir", state_dir, "--model", model,
        "--socket", socket};
    std::vector<char*> argv;
    for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int null_fd = ::open("/dev/null", O_RDWR);
      const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (null_fd >= 0) {
        ::dup2(null_fd, 0);
        ::dup2(null_fd, 1);
      }
      if (log_fd >= 0) ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)reap();
    }
  }

  /// Waits for the child to exit; returns its peak RSS in MiB, and sets
  /// `clean` when it exited with status 0.
  double wait(bool& clean) {
    const int status = reap();
    clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return static_cast<double>(usage_.ru_maxrss) / 1024.0;
  }


 private:
  int reap() {
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage_) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

  pid_t pid_ = -1;
  rusage usage_{};
};

// --------------------------------------------------------------- session

/// Connections to a daemon plus their reader threads. Readers record
/// predict/feedback replies (ids base .. base + tracker capacity) in the
/// tracker and keep the lines for the post-phase checks; other replies
/// (stats, shutdown) are handed to the caller waiting in request().
class Session {
 public:
  Session(const std::string& socket, ReplyTracker& tracker, std::size_t base)
      : tracker_(tracker), base_(base) {
    for (int c = 0; c < kConnections; ++c) fds_.push_back(connect_unix(socket, 30.0));
    lines_.resize(fds_.size());
    for (std::size_t c = 0; c < fds_.size(); ++c) {
      readers_.emplace_back([this, c] { read_loop(c); });
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    join();
    for (const int fd : fds_) ::close(fd);
  }

  bool send(std::size_t k, std::string_view line) {
    return send_all(fds_[k % fds_.size()], line);
  }
  /// Sends `line` on connection 0 and waits for the reply whose id is `id`.
  std::string request(std::string_view line, const std::string& id) {
    std::unique_lock lock(mutex_);
    if (!send_all(fds_.front(), line)) throw std::runtime_error("send failed");
    const bool got = cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      return control_.rfind("{\"id\":\"" + id + "\"", 0) == 0;
    });
    if (!got) throw std::runtime_error("no reply to " + id);
    return control_;
  }
  /// Joins the readers; they return when the daemon closes the
  /// connections (after a shutdown request) or the destructor shuts them.
  void join() {
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
  }

  [[nodiscard]] std::size_t unknown() const noexcept { return unknown_.load(); }
  [[nodiscard]] const std::vector<std::vector<std::string>>& lines() const {
    return lines_;
  }

 private:
  void read_loop(std::size_t c) {
    std::string buffer;
    std::vector<char> chunk(1 << 16);
    for (;;) {
      const ssize_t n = ::read(fds_[c], chunk.data(), chunk.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      const auto now = Clock::now();
      buffer.append(chunk.data(), static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t end = buffer.find('\n'); end != std::string::npos;
           end = buffer.find('\n', begin)) {
        std::string line = buffer.substr(begin, end - begin);
        begin = end + 1;
        if (const auto k = reply_index(line)) {
          const bool ok = line.find("\"ok\":true") != std::string::npos;
          if (*k < base_ || !tracker_.mark_received(*k - base_, now, ok)) ++unknown_;
          lines_[c].push_back(std::move(line));
        } else {
          const std::lock_guard lock(mutex_);
          control_ = std::move(line);
          cv_.notify_all();
        }
      }
      buffer.erase(0, begin);
    }
  }

  ReplyTracker& tracker_;
  std::size_t base_;
  std::vector<int> fds_;
  std::vector<std::vector<std::string>> lines_;
  std::atomic<std::size_t> unknown_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string control_;
  std::vector<std::thread> readers_;  ///< last: joined before the rest goes
};

/// Checks one predict reply's RPV: four finite ratios inside the guard's
/// plausibility bounds.
bool plausible_reply(const std::string& line) {
  if (line.find("\"op\":\"predict\"") == std::string::npos) return true;
  const serve::JsonValue reply = serve::JsonValue::parse(line);
  const serve::JsonValue* rpv = reply.find("rpv");
  if (rpv == nullptr || !rpv->is_array() || rpv->items().size() != arch::kNumSystems) {
    return false;
  }
  std::array<double, arch::kNumSystems> ratios{};
  for (std::size_t s = 0; s < ratios.size(); ++s) ratios[s] = rpv->items()[s].as_number();
  return core::is_plausible_rpv(core::Rpv(ratios));
}

double counter(const serve::JsonValue& stats, std::string_view name) {
  const serve::JsonValue* counters = stats.find("counters");
  const serve::JsonValue* value = counters == nullptr ? nullptr : counters->find(name);
  return value == nullptr ? -1.0 : value->as_number();
}

/// One fixed-rate phase against its own daemon.
struct Phase {
  double rate = 0.0;
  std::size_t lo = 0;  ///< request ids [lo, hi)
  std::size_t hi = 0;
  std::size_t predicts = 0;
  std::size_t feedbacks = 0;
  std::size_t backlog_max = 0;
  double seconds = 0.0;  ///< first due time to last reply
  ReplyTracker::Summary summary;
  std::optional<double> p90;
  std::size_t duplicates = 0;   ///< replies repeated or with unknown ids
  std::size_t implausible = 0;  ///< predict replies with a bad RPV
  bool reconciled = false;      ///< stats predicts/feedbacks == sent
  double shed = 0.0;
  double deadline_expired = 0.0;
  double refits = 0.0;
  double rss_mb = 0.0;
  bool clean_exit = false;
  double steal = 0.0;  ///< share of host CPU time stolen while sending

  [[nodiscard]] std::size_t failed() const {
    const std::size_t errors = summary.answered - summary.ok + summary.missing + duplicates;
    return std::max(errors, static_cast<std::size_t>(shed + deadline_expired));
  }
  /// Replies per second from the first due time to the last reply.
  [[nodiscard]] double replies_per_s() const {
    return static_cast<double>(summary.answered) / seconds;
  }
};

/// Starts a daemon from `model` in `dir`, sends `count` requests with ids
/// from `next`, waits for every reply, reads the daemon's stats, and shuts
/// it down. Open loop (`window` 0): a Poisson stream at `rate`. Closed
/// loop: each request is sent, and due, as soon as fewer than `window` are
/// in flight. `next` advances past the phase to the next multiple of
/// kFeedbackEvery, so every phase carries the same feedback pattern.
Phase run_phase(const std::string& mphpc, const std::string& model, const std::string& dir,
                const Corpus& corpus, double rate, std::size_t count, std::size_t window,
                std::uint64_t seed, std::size_t& next) {
  std::filesystem::create_directories(dir);
  Daemon daemon(mphpc, dir + "/state", model, dir + "/serve.sock", dir + "/daemon.log");
  const std::vector<double> offsets =
      window == 0 ? poisson_offsets(rate, count, seed) : std::vector<double>(count, 0.0);
  ReplyTracker tracker(offsets.size());
  Phase phase;
  phase.rate = rate;
  phase.lo = next;
  {
    Session session(dir + "/serve.sock", tracker, next);
    const CpuTimes cpu_before = cpu_times();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::size_t sent = 0;
    for (; sent < offsets.size(); ++sent) {
      const std::size_t k = next + sent;
      while (window != 0 && sent - tracker.received() >= window) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const auto due =
          window != 0 ? std::max(start, Clock::now())
                      : start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(offsets[sent]));
      tracker.set_due(sent, due);
      if (due - Clock::now() > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(100));
      }
      while (Clock::now() < due) {
      }
      const std::string line = corpus.line(k);
      tracker.mark_sent(sent, Clock::now());
      if (!session.send(k, line)) throw std::runtime_error("daemon connection lost");
      (corpus.is_feedback(k) ? phase.feedbacks : phase.predicts) += 1;
      const std::size_t in_flight = sent + 1 - tracker.received();
      phase.backlog_max = std::max(phase.backlog_max, in_flight);
    }
    phase.hi = next + sent;
    next = (phase.hi + kFeedbackEvery - 1) / kFeedbackEvery * kFeedbackEvery;
    const auto wait_start = Clock::now();
    while (tracker.received() < sent &&
           seconds_between(wait_start, Clock::now()) < kReplyTimeoutS) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    phase.steal = steal_share(cpu_before, cpu_times());
    const serve::JsonValue stats =
        serve::JsonValue::parse(session.request("{\"op\":\"stats\",\"id\":\"s1\"}\n", "s1"));
    (void)session.request("{\"op\":\"shutdown\",\"id\":\"s2\"}\n", "s2");
    session.join();

    phase.summary = tracker.summarize(0, sent);
    phase.seconds = seconds_between(start, phase.summary.last_reply);
    phase.p90 = tail_percentile(phase.summary.latency_ms, 0.90);
    phase.duplicates = tracker.duplicates() + session.unknown();
    for (const auto& lines : session.lines()) {
      for (const std::string& line : lines) {
        if (!plausible_reply(line)) ++phase.implausible;
      }
    }
    phase.reconciled =
        counter(stats, "predicts") == static_cast<double>(phase.predicts) &&
        counter(stats, "feedbacks") == static_cast<double>(phase.feedbacks);
    phase.shed = counter(stats, "shed");
    phase.deadline_expired = counter(stats, "deadline_expired");
    phase.refits = counter(stats, "refits");
  }
  phase.rss_mb = daemon.wait(phase.clean_exit);
  std::fprintf(stderr,
               "perfbench: serve %s: sent %zu, ok %zu, %.0f replies/s, p50 %.3f ms, "
               "p90 %s ms, backlog max %zu, refits %.0f, steal %.1f%%\n",
               window == 0 ? (std::to_string(std::lround(rate)) + "/s").c_str()
                           : ("closed loop " + std::to_string(window)).c_str(),
               phase.hi - phase.lo, phase.summary.ok, phase.replies_per_s(),
               median(phase.summary.latency_ms),
               phase.p90 ? std::to_string(*phase.p90).c_str() : "n/a", phase.backlog_max,
               phase.refits, 100.0 * phase.steal);
  return phase;
}

/// The timed traffic: phases at the low and the high rate, whose latencies
/// are pooled per rate, and capacity bursts, interleaved. Every
/// phase runs against a fresh daemon, so phases do not inherit each
/// other's refits, and a phase the host's neighbours disturbed is re-run.
struct Traffic {
  std::vector<Phase> low;
  std::vector<Phase> high;
  std::vector<Phase> capacity;
  std::vector<Phase> rerun;  ///< attempts replaced because the host stole CPU
  double capacity_rps = 0.0;  ///< calm median replies/s of the capacity bursts
};

/// Phases of a run of `seconds`: one low phase per 10 s, one high phase
/// per 6 s and one capacity burst per 2 s, at least two, three and five.
int low_phases(double seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds / 10.0)));
}
int high_phases(double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / 6.0)));
}
int capacity_bursts(double seconds) {
  return std::max(5, static_cast<int>(std::lround(seconds / 2.0)));
}

Traffic run_traffic(const RunArgs& args, const std::string& model, const std::string& root,
                    const Corpus& corpus, int low_count, int high_count, int capacity_count) {
  Traffic traffic;
  std::size_t next = 0;
  int index = 0;
  // One phase, re-run while the host stole more than kMaxSteal of the CPU
  // during it (up to kMaxAttempts in all); the attempt with the least
  // steal is kept and the others go to traffic.rerun.
  const auto phase = [&](double rate, std::size_t count, std::size_t window) {
    Phase kept;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ++index;
      Phase p = run_phase(args.mphpc, model, root + "/phase" + std::to_string(index), corpus,
                          rate, count, window,
                          derive_seed(args.seed, "phase", static_cast<std::uint64_t>(index)),
                          next);
      if (attempt == 0 || p.steal < kept.steal) std::swap(p, kept);
      if (attempt > 0) traffic.rerun.push_back(std::move(p));
      if (kept.steal <= kMaxSteal) break;
    }
    return kept;
  };
  std::vector<double> rates;
  std::vector<double> steal;
  for (int i = 0; i < std::max({low_count, high_count, capacity_count}); ++i) {
    if (i < low_count) traffic.low.push_back(phase(kLowRps, kLowRequests, 0));
    if (i < high_count) traffic.high.push_back(phase(kHighRps, kHighRequests, 0));
    if (i < capacity_count) {
      traffic.capacity.push_back(phase(0.0, kCapacityRequests, kCapacityWindow));
      rates.push_back(traffic.capacity.back().replies_per_s());
      steal.push_back(traffic.capacity.back().steal);
    }
  }
  traffic.capacity_rps = calm_median(rates, steal);
  return traffic;
}

// ------------------------------------------------------------------ replay

struct Replay {
  std::vector<double> parse_us, featurize_us, predict_row_us, predict_us, handle_us,
      format_us, refit_ms, publish_share;
  double overhead_pct = 0.0;
  std::size_t requests = 0;
  bool ok = true;
};

/// Upper bound on replayed requests (the replay stops earlier once its
/// time is up and it has seen four refits).
constexpr std::size_t kReplayMaxRequests = 200000;

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Wall time of parse + handle over `n` predict requests, with (timed) or
/// without per-call clock reads.
double predict_loop_s(serve::ServeCore& core, const Corpus& corpus, std::size_t n,
                      bool timed, ThreadPool& pool) {
  std::vector<double> sink;
  sink.reserve(2 * n);
  const auto start = Clock::now();
  for (std::size_t k = 0, done = 0; done < n; ++k) {
    if (Corpus::is_feedback(k)) continue;
    ++done;
    const std::string line = corpus.line(k);
    if (timed) {
      const auto t0 = Clock::now();
      const serve::Request req = serve::parse_request(line);
      sink.push_back(us_since(t0));
      const auto t1 = Clock::now();
      const auto replies = core.handle_requests(std::span(&req, 1), &pool);
      sink.push_back(us_since(t1));
    } else {
      const serve::Request req = serve::parse_request(line);
      const auto replies = core.handle_requests(std::span(&req, 1), &pool);
    }
  }
  return seconds_between(start, Clock::now());
}

Replay run_replay(const Corpus& corpus, const std::string& model, const std::string& dir,
                  double seconds, Report& report) {
  Replay r;
  std::filesystem::create_directories(dir);
  ThreadPool pool;

  serve::ServeOptions options;
  options.state_dir = dir + "/state";
  options.model_path = model;
  std::filesystem::create_directories(options.state_dir);

  // Overhead of the per-call clocks, on predict-only parse + handle.
  {
    serve::ServeCore probe(options);
    std::vector<double> ratios;
    for (int i = 0; i < 3; ++i) {
      const double plain = predict_loop_s(probe, corpus, 4000, false, pool);
      const double timed = predict_loop_s(probe, corpus, 4000, true, pool);
      ratios.push_back(timed / plain);
    }
    r.overhead_pct = 100.0 * (median(ratios) - 1.0);
  }

  std::filesystem::remove_all(options.state_dir);
  std::filesystem::create_directories(options.state_dir);
  serve::ServeCore core(options);
  const serve::ModelStore publish_store(dir + "/publish_probe.txt");
  core::GuardedPredictor publish_guard;
  const auto start = Clock::now();
  std::size_t k = 0;
  for (; k < kReplayMaxRequests; ++k) {
    if (seconds_between(start, Clock::now()) >= seconds && r.refit_ms.size() >= 4) break;
    const std::string line = corpus.line(k);
    auto t = Clock::now();
    const serve::Request req = serve::parse_request(line);
    const double parse = us_since(t);
    t = Clock::now();
    const std::vector<std::string> replies = core.handle_requests(std::span(&req, 1), &pool);
    const double handle = us_since(t);
    r.ok &= replies.size() == 1 && replies.front().find("\"ok\":true") != std::string::npos;

    if (req.op == serve::Op::kPredict) {
      r.parse_us.push_back(parse);
      r.handle_us.push_back(handle);
      const auto snapshot = core.guard().snapshot();
      t = Clock::now();
      const auto features = snapshot->pipeline().features(req.profile);
      r.featurize_us.push_back(us_since(t));
      std::array<double, arch::kNumSystems> out{};
      t = Clock::now();
      snapshot->compiled().predict_row(features, out);
      r.predict_row_us.push_back(us_since(t));
      t = Clock::now();
      const std::vector<core::Rpv> rpvs =
          core.guard().predict_rpvs(std::span(&req.profile, 1), &pool);
      r.predict_us.push_back(us_since(t));
      t = Clock::now();
      const std::string reply = serve::predict_reply(req.id, rpvs.front(), false);
      r.format_us.push_back(us_since(t));
      r.ok &= !reply.empty() && core::is_plausible_rpv(rpvs.front());
    }

    if (core.refit_pending()) {
      t = Clock::now();
      const bool published = core.run_refit(&pool);
      const double refit_us = us_since(t);
      r.ok &= published;
      r.refit_ms.push_back(refit_us / 1e3);
      // The publish half of a refit (persist, then swap), timed on its own.
      const auto snapshot = core.guard().snapshot();
      core::CrossArchPredictor copy = *snapshot;
      t = Clock::now();
      (void)publish_store.store(*snapshot, core.generation());
      publish_guard.swap_model(std::move(copy));
      r.publish_share.push_back(us_since(t) / refit_us);
    }
  }
  r.requests = k;
  report.check(r.ok, "in-process replay served a request wrongly");
  return r;
}

/// What every phase of a run adds up to; the phases' correctness checks
/// are recorded, and their requests counted as attempted and failed.
struct Tally {
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::size_t backlog_max = 0;
  double rss_mb = 0.0;
  double refits = 0.0;
  double shed = 0.0;
  double expired = 0.0;
  std::vector<double> lag_ms;
};

Tally tally(const Traffic& traffic, Report& report) {
  Tally t;
  double steal = 0.0;
  std::size_t kept = 0;
  for (const auto* group : {&traffic.low, &traffic.high, &traffic.capacity, &traffic.rerun}) {
    for (const Phase& p : *group) {
      t.sent += p.hi - p.lo;
      t.failed += p.failed();
      t.backlog_max = std::max(t.backlog_max, p.backlog_max);
      t.rss_mb = std::max(t.rss_mb, p.rss_mb);
      t.refits += p.refits;
      t.shed += p.shed;
      t.expired += p.deadline_expired;
      t.lag_ms.insert(t.lag_ms.end(), p.summary.lag_ms.begin(), p.summary.lag_ms.end());
      if (group != &traffic.rerun) {
        steal += p.steal;
        ++kept;
      }
      report.check(p.summary.missing == 0, "requests left unanswered");
      report.check(p.duplicates == 0, "replies duplicated or with unknown ids");
      report.check(p.implausible == 0, "predicted RPV not finite or implausible");
      report.check(p.reconciled, "stats predicts/feedbacks do not match requests sent");
      report.check(p.clean_exit, "daemon did not shut down cleanly");
    }
  }
  report.attempt(static_cast<long long>(t.sent));
  report.fail(static_cast<long long>(t.failed));
  std::fprintf(stderr,
               "perfbench: serve traffic: sent %zu, failed %zu, shed %.0f, deadline expired "
               "%.0f, refits %.0f, re-run phases %zu, steal %.2f%%\n",
               t.sent, t.failed, t.shed, t.expired, t.refits, traffic.rerun.size(),
               100.0 * steal / static_cast<double>(std::max<std::size_t>(kept, 1)));
  return t;
}

/// Each fixed rate's latencies, pooled over its phases.
std::vector<double> pooled_ms(const std::vector<Phase>& phases) {
  std::vector<double> v;
  for (const Phase& p : phases) {
    v.insert(v.end(), p.summary.latency_ms.begin(), p.summary.latency_ms.end());
  }
  return v;
}

}  // namespace

void run_serve(const RunArgs& args, Report& report) {
  // Scratch space for models, daemon state and sockets, private to this
  // process; removed when the workload completes (kept after an exception
  // for the daemon logs).
  const std::string root = ".perfbench_work/serve-" + std::to_string(::getpid());
  std::filesystem::remove_all(root);

  // Set-up, kSetups times: train through the library, persist, start the
  // daemon from the saved model, and wait until it answers a request.
  std::vector<double> setups;
  std::vector<double> setup_steal;
  std::string model;
  std::optional<TrainedModel> trained;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = root + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    model = dir + "/model.txt";
    const CpuTimes cpu_before = cpu_times();
    const auto t0 = Clock::now();
    trained.emplace(train_paper_model());
    trained->predictor.save(model);
    Daemon daemon(args.mphpc, dir + "/state", model, dir + "/serve.sock",
                  dir + "/daemon.log");
    ReplyTracker none(0);
    Session session(dir + "/serve.sock", none, 0);
    const std::string ready = session.request("{\"op\":\"stats\",\"id\":\"s0\"}\n", "s0");
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_steal.push_back(steal_share(cpu_before, cpu_times()));
    report.check(ready.find("\"ok\":true") != std::string::npos, "daemon not ready");
    (void)session.request("{\"op\":\"shutdown\",\"id\":\"s9\"}\n", "s9");
    session.join();
    bool clean = false;
    (void)daemon.wait(clean);
    report.check(clean, "daemon did not shut down cleanly");
  }

  const Corpus corpus = build_corpus(args.seed);
  const Traffic traffic =
      run_traffic(args, model, root + "/traffic", corpus, low_phases(args.seconds),
                  high_phases(args.seconds), capacity_bursts(args.seconds));
  const Tally t = tally(traffic, report);
  report.check(tail_percentile(pooled_ms(traffic.low), 0.99).has_value() &&
                   tail_percentile(pooled_ms(traffic.high), 0.99).has_value(),
               "too few samples for p99 at a fixed rate");

  const core::EvalMetrics accuracy = test_accuracy(*trained);
  report.add("setup_s", calm_median(setups, setup_steal), "s");
  report.add("peak_rss_mb", t.rss_mb, "MiB");
  report.add("ops_per_s", traffic.capacity_rps, "1/s");
  report.add("rpv_mae", accuracy.mae, "ratio");
  report.add("rpv_sos", accuracy.sos, "share");
  std::filesystem::remove_all(root);
}

double trace_serve(const RunArgs& args, bool full, const std::string& model_path,
                   const std::string& dir, Report& report) {
  const Corpus corpus = build_corpus(args.seed);
  const Traffic traffic =
      full ? run_traffic(args, model_path, dir + "/traffic", corpus, low_phases(args.seconds),
                         high_phases(args.seconds), 0)
           : run_traffic(args, model_path, dir + "/traffic", corpus, 1, 1, 0);
  const Tally t = tally(traffic, report);
  const std::vector<double> low_ms = pooled_ms(traffic.low);
  const std::vector<double> high_ms = pooled_ms(traffic.high);
  const auto low_p99 = tail_percentile(low_ms, 0.99);
  const auto high_p99 = tail_percentile(high_ms, 0.99);
  report.check(low_p99.has_value() && high_p99.has_value(),
               "too few samples for p99 at a fixed rate");

  const Replay replay =
      run_replay(corpus, model_path, dir + "/replay", full ? args.seconds / 2 : 0.0, report);
  report.attempt(static_cast<long long>(replay.requests));
  if (!replay.ok) report.fail();
  const double low_p50 = median(low_ms);
  const double parse_us = median(replay.parse_us);
  const double handle_us = median(replay.handle_us);

  report.add("serve.p50_ms.low", low_p50, "ms");
  report.add("serve.p90_ms.low", tail_percentile(low_ms, 0.90).value_or(0.0), "ms");
  report.add("serve.p99_ms.low", low_p99.value_or(0.0), "ms");
  report.add("serve.p50_ms.high", median(high_ms), "ms");
  report.add("serve.p90_ms.high", tail_percentile(high_ms, 0.90).value_or(0.0), "ms");
  report.add("serve.p99_ms.high", high_p99.value_or(0.0), "ms");
  report.add("serve.parse_us", parse_us, "us");
  report.add("core.featurize_us", median(replay.featurize_us), "us");
  report.add("ml.predict_row_us", median(replay.predict_row_us), "us");
  report.add("core.predict_us", median(replay.predict_us), "us");
  report.add("serve.handle_us", handle_us, "us");
  report.add("serve.format_us", median(replay.format_us), "us");
  report.add("serve.unexplained_us", 1e3 * low_p50 - parse_us - handle_us, "us");
  report.add("serve.refit_ms", median(replay.refit_ms), "ms");
  report.add("serve.refits", t.refits, "count");
  report.add("serve.refit_publish_share", median(replay.publish_share), "share");
  report.add("serve.backlog_max", static_cast<double>(t.backlog_max), "count");
  report.add("serve.gen_lag_ms.p99", tail_percentile(t.lag_ms, 0.99).value_or(0.0), "ms");
  return replay.overhead_pct;
}

}  // namespace perfbench
