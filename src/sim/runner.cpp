#include "sim/runner.hpp"

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/contract.hpp"
#include "common/strings.hpp"

namespace mphpc::sim {

namespace {

// ---------------------------------------------------- campaign shards ----
//
// One shard file per (app, input) work item, written atomically after the
// item is profiled. Layout:
//   mphpc-shard v1
//   app <name>
//   input <index>
//   profiles <count>
//   p <35 numeric fields per profile>
// Anything that fails to parse — wrong header, wrong count, out-of-range
// enum, non-positive time — invalidates the whole shard and the item is
// re-profiled; a stale or tampered cache can never poison the campaign
// silently, it is just slower.

std::string shard_path(const std::string& dir, const std::string& app, int input) {
  return dir + "/" + app + "_i" + std::to_string(input) + ".shard";
}

std::string serialize_shard(const std::string& app, int input,
                            const RunProfile* profiles, std::size_t count) {
  std::string out = "mphpc-shard v1\napp " + app + "\ninput " +
                    std::to_string(input) + "\nprofiles " + std::to_string(count) +
                    "\n";
  for (std::size_t j = 0; j < count; ++j) {
    const RunProfile& p = profiles[j];
    out += "p " + format_double(p.input_scale) + " " +
           std::to_string(static_cast<int>(p.system)) + " " +
           std::to_string(static_cast<int>(p.device)) + " " +
           std::to_string(static_cast<int>(p.config.scale_class)) + " " +
           std::to_string(p.config.nodes) + " " + std::to_string(p.config.ranks) +
           " " + std::to_string(p.config.cores) + " " +
           std::to_string(p.config.gpus) + " " +
           std::to_string(p.config.uses_gpu ? 1 : 0) + " " +
           format_double(p.time_s) + " " + format_double(p.model_time_s);
    const double breakdown[] = {p.breakdown.compute_s,  p.breakdown.memory_s,
                                p.breakdown.branch_s,   p.breakdown.gpu_s,
                                p.breakdown.overhead_s, p.breakdown.serial_s,
                                p.breakdown.comm_s,     p.breakdown.io_s};
    for (const double v : breakdown) {
      out += ' ';
      out += format_double(v);
    }
    for (const double v : p.counters) {
      out += ' ';
      out += format_double(v);
    }
    out += "\n";
  }
  return out;
}

/// Reads a whole file; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses one shard's text back into profiles. Returns nullopt on any
/// structural or range problem (the caller re-profiles the item).
std::optional<std::vector<RunProfile>> parse_shard(const std::string& text,
                                                   const std::string& app, int input,
                                                   std::size_t expected_count) {
  const auto lines = split(text, '\n');
  std::size_t i = 0;
  const auto next = [&]() -> std::string_view {
    while (i < lines.size() && trim(lines[i]).empty()) ++i;
    return i < lines.size() ? trim(lines[i++]) : std::string_view{};
  };
  try {
    if (next() != "mphpc-shard v1") return std::nullopt;
    if (next() != "app " + app) return std::nullopt;
    if (next() != "input " + std::to_string(input)) return std::nullopt;
    if (next() != "profiles " + std::to_string(expected_count)) return std::nullopt;

    std::vector<RunProfile> profiles(expected_count);
    for (std::size_t j = 0; j < expected_count; ++j) {
      const auto parts = split(next(), ' ');
      if (parts.size() != 36 || parts[0] != "p") return std::nullopt;
      RunProfile& p = profiles[j];
      p.app = app;
      p.input_index = input;
      p.input_scale = parse_double(parts[1]);
      const long long system = parse_int(parts[2]);
      const long long device = parse_int(parts[3]);
      const long long scale = parse_int(parts[4]);
      if (system < 0 || system >= static_cast<long long>(arch::kNumSystems) ||
          device < 0 || device > 1 || scale < 0 ||
          scale >= static_cast<long long>(workload::kNumScaleClasses)) {
        return std::nullopt;
      }
      p.system = static_cast<arch::SystemId>(system);
      p.device = static_cast<arch::Device>(device);
      p.config.scale_class = static_cast<workload::ScaleClass>(scale);
      p.config.nodes = parse_int32(parts[5]);
      p.config.ranks = parse_int32(parts[6]);
      p.config.cores = parse_int32(parts[7]);
      p.config.gpus = parse_int32(parts[8]);
      p.config.uses_gpu = parse_int(parts[9]) != 0;
      p.time_s = parse_double(parts[10]);
      p.model_time_s = parse_double(parts[11]);
      double* breakdown[] = {&p.breakdown.compute_s,  &p.breakdown.memory_s,
                             &p.breakdown.branch_s,   &p.breakdown.gpu_s,
                             &p.breakdown.overhead_s, &p.breakdown.serial_s,
                             &p.breakdown.comm_s,     &p.breakdown.io_s};
      for (std::size_t b = 0; b < 8; ++b) *breakdown[b] = parse_double(parts[12 + b]);
      for (std::size_t c = 0; c < arch::kNumCounterKinds; ++c) {
        p.counters[c] = parse_double(parts[20 + c]);
      }
      if (!(p.time_s > 0.0) || p.config.nodes < 1 || p.config.ranks < 1 ||
          p.config.cores < 1 || p.config.gpus < 0) {
        return std::nullopt;
      }
    }
    return profiles;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

// Manifest v2 header: identifies the campaign configuration. Followed by
// one `shard <app> <input> <fnv1a64-hex>` line per completed work item
// recording the content hash of its shard file. A v1 (or otherwise
// mismatched) manifest never matches the header, so the whole campaign
// re-profiles — hash lines only ever tighten reuse.
std::string campaign_fingerprint(const CampaignOptions& options) {
  return "mphpc-campaign v2\nseed " + std::to_string(options.seed) +
         "\ninputs_per_app " + std::to_string(options.inputs_per_app) + "\n";
}

/// Recorded shard hashes from a manifest whose header matched, keyed by
/// "<app> <input>". Lines that fail to parse are skipped (their items
/// fall back to parse-only shard validation).
std::map<std::string, std::uint64_t> parse_manifest_hashes(const std::string& text) {
  std::map<std::string, std::uint64_t> hashes;
  for (const std::string& line : split(text, '\n')) {
    const auto parts = split(std::string(trim(line)), ' ');
    if (parts.size() != 4 || parts[0] != "shard") continue;
    try {
      std::uint64_t hash = 0;
      const std::string& hex = parts[3];
      if (hex.size() != 16) continue;
      for (const char c : hex) {
        const auto lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        std::uint64_t digit = 0;
        if (lower >= '0' && lower <= '9') {
          digit = static_cast<std::uint64_t>(lower - '0');
        } else if (lower >= 'a' && lower <= 'f') {
          digit = static_cast<std::uint64_t>(lower - 'a') + 10;
        } else {
          throw ParseError("bad hex digit");
        }
        hash = (hash << 4) | digit;
      }
      (void)parse_int(parts[2]);  // input index must at least be numeric
      hashes[parts[1] + " " + parts[2]] = hash;
    } catch (const ParseError&) {
      continue;
    }
  }
  return hashes;
}

}  // namespace

std::vector<RunProfile> run_input(const workload::AppSignature& app,
                                  const workload::InputConfig& input,
                                  const arch::SystemCatalog& systems,
                                  const Profiler& profiler) {
  std::vector<RunProfile> profiles;
  profiles.reserve(arch::kNumSystems * workload::kNumScaleClasses);
  for (const arch::SystemId id : arch::kAllSystems) {
    const arch::ArchitectureSpec& sys = systems.get(id);
    for (const workload::ScaleClass scale : workload::kAllScaleClasses) {
      profiles.push_back(profiler.profile(app, input, scale, sys));
    }
  }
  return profiles;
}

std::vector<RunProfile> run_campaign(const workload::AppCatalog& apps,
                                     const arch::SystemCatalog& systems,
                                     const CampaignOptions& options,
                                     ThreadPool* pool) {
  MPHPC_EXPECTS(options.inputs_per_app > 0);

  // Enumerate (app, input) work items up front so the parallel loop writes
  // into pre-sized slots and the output order is independent of timing.
  struct WorkItem {
    const workload::AppSignature* app;
    workload::InputConfig input;
  };
  std::vector<WorkItem> items;
  items.reserve(apps.size() * static_cast<std::size_t>(options.inputs_per_app));
  for (const auto& app : apps.all()) {
    for (auto& input : workload::make_inputs(app, options.inputs_per_app, options.seed)) {
      items.push_back({&app, std::move(input)});
    }
  }

  const std::size_t per_item = arch::kNumSystems * workload::kNumScaleClasses;
  std::vector<RunProfile> all(items.size() * per_item);
  const Profiler profiler(options.seed);

  // Interruptible campaigns: shards from a previous run of the *same*
  // campaign (manifest header match) are reused. A shard whose content
  // hash is recorded in the manifest must hash-match byte-for-byte (a
  // silently edited cache re-profiles); a shard with no recorded hash —
  // the previous run was interrupted before the final manifest write —
  // is accepted on parse alone, preserving partial-campaign resume.
  const std::string& dir = options.checkpoint_dir;
  const std::string manifest_path = dir.empty() ? std::string{} : dir + "/manifest.txt";
  const std::string fingerprint = campaign_fingerprint(options);
  bool reuse_shards = false;
  std::map<std::string, std::uint64_t> recorded;
  if (!dir.empty()) {
    std::filesystem::create_directories(dir);
    if (const auto existing = read_file(manifest_path)) {
      reuse_shards = starts_with(*existing, fingerprint);
      if (reuse_shards) recorded = parse_manifest_hashes(*existing);
    }
    // Header-only manifest up front: a crash mid-campaign leaves a valid
    // header plus whatever shards completed, so the next run resumes.
    if (!reuse_shards) atomic_write_text(manifest_path, fingerprint);
  }

  std::vector<std::uint64_t> shard_hashes(items.size(), 0);
  const auto process = [&](std::size_t i) {
    const std::string& app_name = items[i].app->name;
    const int input = items[i].input.index;
    const std::string shard =
        dir.empty() ? std::string{} : shard_path(dir, app_name, input);
    if (reuse_shards) {
      const auto it = recorded.find(app_name + " " + std::to_string(input));
      if (const auto text = read_file(shard)) {
        const std::uint64_t hash = fnv1a_64(*text);
        const bool hash_ok = it == recorded.end() || it->second == hash;
        if (hash_ok) {
          if (auto cached = parse_shard(*text, app_name, input, per_item)) {
            for (std::size_t j = 0; j < per_item; ++j) {
              all[i * per_item + j] = std::move((*cached)[j]);
            }
            shard_hashes[i] = hash;
            return;
          }
        }
      }
    }
    auto profiles = run_input(*items[i].app, items[i].input, systems, profiler);
    if (!shard.empty()) {
      const std::string text =
          serialize_shard(app_name, input, profiles.data(), per_item);
      atomic_write_text(shard, text);
      shard_hashes[i] = fnv1a_64(text);
    }
    for (std::size_t j = 0; j < per_item; ++j) {
      all[i * per_item + j] = std::move(profiles[j]);
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(0, items.size(), process);
  } else {
    for (std::size_t i = 0; i < items.size(); ++i) process(i);
  }

  if (!dir.empty()) {
    // Full manifest only after every shard is on disk: header + one
    // content-hash line per item, in deterministic item order.
    std::string manifest = fingerprint;
    for (std::size_t i = 0; i < items.size(); ++i) {
      manifest += "shard " + items[i].app->name + " " +
                  std::to_string(items[i].input.index) + " " +
                  format_hex64(shard_hashes[i]) + "\n";
    }
    atomic_write_text(manifest_path, manifest);
  }
  // Campaign invariant: every (app, input, system, scale) slot was filled
  // with a positive observed runtime.
  MPHPC_ENSURES(all.size() == items.size() * per_item);
  for (const RunProfile& p : all) MPHPC_ENSURES(p.time_s > 0.0);
  return all;
}

}  // namespace mphpc::sim
