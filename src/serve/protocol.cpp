#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "serve/json.hpp"
#include "sim/counter_synth.hpp"

namespace mphpc::serve {

namespace {

[[noreturn]] void bad(const std::string& what) { throw ParseError(what); }

/// Required member of `kind` string, or fail with the field name.
const JsonValue& require(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) bad("missing required field '" + std::string(key) + "'");
  return *v;
}

const std::string& get_string(const JsonValue& obj, std::string_view key) {
  const JsonValue& v = require(obj, key);
  if (!v.is_string()) bad("field '" + std::string(key) + "' must be a string");
  return v.as_string();
}

double get_number(const JsonValue& v, std::string_view key) {
  if (!v.is_number()) bad("field '" + std::string(key) + "' must be a number");
  const double d = v.as_number();
  if (!std::isfinite(d)) bad("field '" + std::string(key) + "' must be finite");
  return d;
}

/// Optional numeric member with a default.
double opt_number(const JsonValue& obj, std::string_view key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : get_number(*v, key);
}

int opt_int(const JsonValue& obj, std::string_view key, int fallback) {
  const double d = opt_number(obj, key, static_cast<double>(fallback));
  // Range-check BEFORE casting: double->int overflow is undefined
  // behavior, and clients control this value. Both int bounds are
  // exactly representable as doubles, so the comparisons are precise.
  if (d < static_cast<double>(std::numeric_limits<int>::min()) ||
      d > static_cast<double>(std::numeric_limits<int>::max()) ||
      d != std::floor(d)) {
    bad("field '" + std::string(key) + "' must be an integer in int range");
  }
  return static_cast<int>(d);
}

bool opt_bool(const JsonValue& obj, std::string_view key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) bad("field '" + std::string(key) + "' must be a boolean");
  return v->as_bool();
}

workload::ScaleClass parse_scale_class(std::string_view name) {
  for (const workload::ScaleClass s : workload::kAllScaleClasses) {
    if (workload::to_string(s) == name) return s;
  }
  bad("unknown scale class '" + std::string(name) + "' (1core|1node|2node)");
}

sim::RunProfile parse_profile(const JsonValue& obj) {
  sim::RunProfile p;
  p.app = get_string(obj, "app");
  if (p.app.empty()) bad("profile.app must be non-empty");

  const std::string& system = get_string(obj, "system");
  const auto sys = arch::parse_system(system);
  if (!sys.has_value()) bad("unknown system '" + system + "'");
  p.system = *sys;

  p.input_index = opt_int(obj, "input_index", 0);
  p.input_scale = opt_number(obj, "input_scale", 1.0);
  if (p.input_scale <= 0.0) bad("profile.input_scale must be positive");

  if (const JsonValue* scale = obj.find("scale"); scale != nullptr) {
    if (!scale->is_string()) bad("profile.scale must be a string");
    p.config.scale_class = parse_scale_class(scale->as_string());
  }
  p.config.nodes = opt_int(obj, "nodes", 1);
  p.config.ranks = opt_int(obj, "ranks", 1);
  p.config.cores = opt_int(obj, "cores", 1);
  p.config.gpus = opt_int(obj, "gpus", 0);
  if (p.config.nodes < 1 || p.config.ranks < 1 || p.config.cores < 1 ||
      p.config.gpus < 0) {
    bad("profile resources must be positive (nodes/ranks/cores) and gpus >= 0");
  }
  p.config.uses_gpu = opt_bool(obj, "uses_gpu", p.config.gpus > 0);
  if (const JsonValue* device = obj.find("device"); device != nullptr) {
    if (!device->is_string()) bad("profile.device must be a string");
    const std::string& d = device->as_string();
    if (d == "cpu") {
      p.device = arch::Device::kCpu;
    } else if (d == "gpu") {
      p.device = arch::Device::kGpu;
    } else {
      bad("unknown device '" + d + "' (cpu|gpu)");
    }
  }

  p.time_s = opt_number(obj, "time_s", 0.0);
  if (p.time_s < 0.0) bad("profile.time_s must be non-negative");

  const JsonValue& counters = require(obj, "counters");
  if (!counters.is_object()) bad("profile.counters must be an object");
  for (const auto& [name, value] : counters.members()) {
    const auto kind = arch::parse_counter_kind(name);
    if (!kind.has_value()) bad("unknown counter '" + name + "'");
    const double v = get_number(value, name);
    if (v < 0.0) bad("counter '" + name + "' must be non-negative");
    sim::set(p.counters, *kind, v);
  }
  if (sim::get(p.counters, arch::CounterKind::kTotalInstructions) <= 0.0) {
    bad("counter 'total_instructions' must be positive");
  }
  return p;
}

core::SystemTimes parse_times(const JsonValue& obj) {
  core::SystemTimes times{};
  std::size_t seen = 0;
  for (const auto& [name, value] : obj.members()) {
    const auto sys = arch::parse_system(name);
    if (!sys.has_value()) bad("unknown system '" + name + "' in times");
    const double t = get_number(value, name);
    if (t <= 0.0) bad("times." + name + " must be positive");
    const std::size_t idx = static_cast<std::size_t>(*sys);
    // A repeated key would count toward `seen` twice and leave another
    // system's slot at 0, tripping a contract check deep in Rpv instead
    // of a bad_request here. Times are already required positive, so a
    // non-zero slot means the key appeared before.
    if (times[idx] > 0.0) bad("duplicate system '" + name + "' in times");
    times[idx] = t;
    ++seen;
  }
  if (seen != arch::kNumSystems) {
    bad("times must name all " + std::to_string(arch::kNumSystems) + " systems");
  }
  return times;
}

}  // namespace

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kPredict: return "predict";
    case Op::kFeedback: return "feedback";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(std::string_view line) {
  const JsonValue root = JsonValue::parse(line);
  if (!root.is_object()) bad("request must be a JSON object");

  Request req;
  if (const JsonValue* id = root.find("id"); id != nullptr) {
    if (!id->is_string()) bad("field 'id' must be a string");
    req.id = id->as_string();
  }

  const std::string& op = get_string(root, "op");
  if (op == "predict") {
    req.op = Op::kPredict;
  } else if (op == "feedback") {
    req.op = Op::kFeedback;
  } else if (op == "stats") {
    req.op = Op::kStats;
  } else if (op == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    bad("unknown op '" + op + "'");
  }

  if (req.op == Op::kPredict || req.op == Op::kFeedback) {
    const JsonValue& profile = require(root, "profile");
    if (!profile.is_object()) bad("field 'profile' must be an object");
    req.profile = parse_profile(profile);
  }
  if (req.op == Op::kFeedback) {
    const JsonValue& times = require(root, "times");
    if (!times.is_object()) bad("field 'times' must be an object");
    req.times = parse_times(times);
  }
  return req;
}

std::string predict_reply(std::string_view id, const core::Rpv& rpv,
                          bool fallback) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("op", "predict");
  w.begin_array("rpv");
  for (const double r : rpv.values()) w.value(r);
  w.end_array();
  w.field("fastest", arch::to_string(rpv.fastest()));
  w.field("fallback", fallback);
  w.end_object();
  return w.str();
}

std::string feedback_reply(std::string_view id, bool degraded,
                           double rolling_mae) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("op", "feedback");
  w.field("degraded", degraded);
  w.field("rolling_mae", rolling_mae);
  w.end_object();
  return w.str();
}

std::string error_reply(std::string_view id, std::string_view code,
                        std::string_view message) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", false);
  w.field("code", code);
  w.field("error", message);
  w.end_object();
  return w.str();
}

}  // namespace mphpc::serve
