#include "core/feature_pipeline.hpp"

#include <cmath>

#include "common/contract.hpp"
#include "common/strings.hpp"

namespace mphpc::core {

using arch::CounterKind;

const std::array<std::string_view, FeaturePipeline::kNumFeatures>&
FeaturePipeline::feature_names() noexcept {
  static const std::array<std::string_view, kNumFeatures> names = {
      "branch_intensity",  // 0
      "store_intensity",   // 1
      "load_intensity",    // 2
      "sp_fp_intensity",   // 3
      "dp_fp_intensity",   // 4
      "arith_intensity",   // 5 (ratio of integer arithmetic instructions)
      "l1_load_misses",    // 6  -- standardized from here ...
      "l1_store_misses",   // 7
      "l2_load_misses",    // 8
      "l2_store_misses",   // 9
      "io_bytes_written",  // 10
      "io_bytes_read",     // 11
      "page_table_size",   // 12
      "mem_stalls",        // 13 -- ... through here
      "nodes",             // 14
      "cores",             // 15
      "uses_gpu",          // 16
      "arch_quartz",       // 17
      "arch_ruby",         // 18
      "arch_lassen",       // 19
      "arch_corona",       // 20
  };
  return names;
}

FeaturePipeline::FeatureVector FeaturePipeline::raw_features(
    const sim::RunProfile& profile) {
  const auto& c = profile.counters;
  const double total = sim::get(c, CounterKind::kTotalInstructions);
  MPHPC_EXPECTS(total > 0.0);

  FeatureVector f{};
  f[0] = sim::get(c, CounterKind::kBranchInstructions) / total;
  f[1] = sim::get(c, CounterKind::kStoreInstructions) / total;
  f[2] = sim::get(c, CounterKind::kLoadInstructions) / total;
  f[3] = sim::get(c, CounterKind::kSpFpInstructions) / total;
  f[4] = sim::get(c, CounterKind::kDpFpInstructions) / total;
  f[5] = sim::get(c, CounterKind::kIntArithInstructions) / total;
  f[6] = sim::get(c, CounterKind::kL1LoadMisses);
  f[7] = sim::get(c, CounterKind::kL1StoreMisses);
  f[8] = sim::get(c, CounterKind::kL2LoadMisses);
  f[9] = sim::get(c, CounterKind::kL2StoreMisses);
  f[10] = sim::get(c, CounterKind::kIoBytesWritten);
  f[11] = sim::get(c, CounterKind::kIoBytesRead);
  f[12] = sim::get(c, CounterKind::kPageTableSize);
  f[13] = sim::get(c, CounterKind::kMemStallCycles);
  f[14] = static_cast<double>(profile.config.nodes);
  f[15] = static_cast<double>(profile.config.cores);
  f[16] = profile.device == arch::Device::kGpu ? 1.0 : 0.0;
  f[17 + static_cast<std::size_t>(profile.system)] = 1.0;
  return f;
}

void FeaturePipeline::fit(std::span<const double> raw_rows, std::size_t n_rows) {
  MPHPC_EXPECTS(n_rows > 0);
  MPHPC_EXPECTS(raw_rows.size() == n_rows * kNumFeatures);
  for (std::size_t j = 0; j < kNumStandardized; ++j) {
    const std::size_t col = kFirstStandardized + j;
    double sum = 0.0;
    for (std::size_t r = 0; r < n_rows; ++r) sum += raw_rows[r * kNumFeatures + col];
    const double mean = sum / static_cast<double>(n_rows);
    double sq = 0.0;
    for (std::size_t r = 0; r < n_rows; ++r) {
      const double d = raw_rows[r * kNumFeatures + col] - mean;
      sq += d * d;
    }
    const double var = sq / static_cast<double>(n_rows);
    means_[j] = mean;
    stds_[j] = var > 0.0 ? std::sqrt(var) : 1.0;
  }
  fitted_ = true;
}

void FeaturePipeline::transform(FeatureVector& features) const {
  MPHPC_EXPECTS(fitted_);
  for (std::size_t j = 0; j < kNumStandardized; ++j) {
    double& v = features[kFirstStandardized + j];
    v = (v - means_[j]) / stds_[j];
  }
}

FeaturePipeline::FeatureVector FeaturePipeline::features(
    const sim::RunProfile& profile) const {
  FeatureVector f = raw_features(profile);
  transform(f);
  return f;
}

double FeaturePipeline::mean(std::size_t standardized_index) const {
  MPHPC_EXPECTS(fitted_ && standardized_index < kNumStandardized);
  return means_[standardized_index];
}

double FeaturePipeline::stddev(std::size_t standardized_index) const {
  MPHPC_EXPECTS(fitted_ && standardized_index < kNumStandardized);
  return stds_[standardized_index];
}

std::string FeaturePipeline::serialize() const {
  MPHPC_EXPECTS(fitted_);
  std::string out = "feature_pipeline " + std::to_string(kNumStandardized) + "\n";
  for (std::size_t j = 0; j < kNumStandardized; ++j) {
    out += format_double(means_[j]) + " " + format_double(stds_[j]) + "\n";
  }
  return out;
}

FeaturePipeline FeaturePipeline::deserialize(std::string_view text) {
  const auto lines = split(text, '\n');
  if (lines.empty()) throw ParseError("feature pipeline: empty");
  const auto header = split(trim(lines[0]), ' ');
  if (header.size() != 2 || header[0] != "feature_pipeline" ||
      static_cast<std::size_t>(parse_int(header[1])) != kNumStandardized) {
    throw ParseError("feature pipeline: bad header");
  }
  if (lines.size() < kNumStandardized + 1) throw ParseError("feature pipeline: truncated");
  FeaturePipeline p;
  for (std::size_t j = 0; j < kNumStandardized; ++j) {
    const auto parts = split(trim(lines[j + 1]), ' ');
    if (parts.size() != 2) throw ParseError("feature pipeline: bad row");
    p.means_[j] = parse_double(parts[0]);
    p.stds_[j] = parse_double(parts[1]);
    // fit() never writes these; a loaded one would turn transform()'s
    // output into inf or NaN features.
    if (!std::isfinite(p.means_[j]) || !std::isfinite(p.stds_[j]) ||
        p.stds_[j] <= 0.0) {
      throw ParseError("feature pipeline: row " + std::to_string(j) +
                       " needs a finite mean and a finite std > 0");
    }
  }
  p.fitted_ = true;
  return p;
}

}  // namespace mphpc::core
