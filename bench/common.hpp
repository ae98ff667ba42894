// Shared experiment environment for the per-figure bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation. They share: the synthetic corpus configuration (default is a
// 40%-scale corpus that runs in seconds; --paper-scale switches to the
// paper's 3000/600), the trained victim detectors, and the attack
// configuration. All randomness is seeded, so each bench is reproducible.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "attack/evasion.hpp"
#include "attack/reverse_engineer.hpp"
#include "hmd/builders.hpp"
#include "trace/dataset.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace shmd::bench {

struct BenchConfig {
  trace::DatasetConfig dataset;
  hmd::HmdTrainOptions train;
  /// Malware programs attacked per transferability measurement.
  std::size_t attack_samples = 100;
  /// Repeats for mean/stddev aggregation (the paper uses 50).
  int repeats = 5;
  /// 3-fold CV rotations to run (paper: all 3).
  int rotations = 3;
  /// Scoring-service worker threads (0 = all cores). Scores depend on the
  /// seed only, never on the worker count.
  std::size_t workers = 0;
  std::optional<std::string> csv_path;
};

/// Register the standard flags on `cli`.
void add_common_flags(util::CliParser& cli);

/// Build the configuration from parsed flags.
[[nodiscard]] BenchConfig config_from_cli(const util::CliParser& cli);

/// Parse + build in one step; returns nullopt when --help was requested.
[[nodiscard]] std::optional<BenchConfig> parse_bench_args(int argc, const char* const* argv,
                                                          util::CliParser& cli);

/// Print the table and optionally persist it as CSV.
void emit(const util::Table& table, const BenchConfig& config);

/// The victim's feature configuration (instruction-category view at the
/// shorter detection period), as in the paper.
[[nodiscard]] trace::FeatureConfig victim_config(const trace::Dataset& ds);

/// Default evasion configuration: benign-mimicry mix measured on the
/// attacker fold, calibrated craft threshold filled in by the caller.
[[nodiscard]] attack::EvasionConfig make_evasion_config(const trace::Dataset& ds,
                                                        const trace::FoldSplit& folds);

/// First `limit` malware programs of the testing fold.
[[nodiscard]] std::vector<std::size_t> malware_subset(const trace::Dataset& ds,
                                                      const trace::FoldSplit& folds,
                                                      std::size_t limit);

}  // namespace shmd::bench
