// Space exploration (§VI): select the Stochastic-HMD operating point.
//
// "we identify the undervolting level that would result in the minimal to
//  no accuracy loss under no evasion attack, while maximizing the
//  robustness to evasive malware."
//
// Robustness grows monotonically with the error rate while accuracy decays
// slowly then sharply (Fig. 2a/8), so the optimal point is the DEEPEST
// error rate whose measured accuracy loss stays within the defender's
// budget. How much noise a given model tolerates depends on how saturated
// its scores are — hence this is a per-deployment calibration, run by the
// defender on its own validation data, exactly like the per-device voltage
// calibration of §IX.
#pragma once

#include <span>
#include <vector>

#include "hmd/stochastic_hmd.hpp"
#include "trace/dataset.hpp"

namespace shmd::hmd {

struct SpaceExplorationOptions {
  /// Maximum tolerated accuracy loss relative to the fault-free detector.
  double max_accuracy_loss = 0.02;
  /// Candidate error rates, swept in order; the deepest admissible wins.
  std::vector<double> candidates = {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5};
  /// Stochastic repeats per candidate (accuracy is a random variable).
  /// Eight keep the pick steady when a candidate's loss sits near the
  /// budget: on the examples' corpora er = 0.05 costs ~1.6% against the
  /// 2% budget, within the noise of a few repeats.
  int repeats = 8;
  std::uint64_t noise_seed = 0x5E1EC7ULL;
};

struct SpaceExplorationResult {
  double error_rate = 0.0;          ///< selected operating point
  double baseline_accuracy = 0.0;   ///< fault-free accuracy on the validation set
  double selected_accuracy = 0.0;   ///< mean accuracy at the selected er
  /// Mean accuracy per candidate (parallel to options.candidates).
  std::vector<double> candidate_accuracy;
};

/// Run the exploration for `net` on the defender's own programs
/// (`validation_indices`) and return the selected operating point.
[[nodiscard]] SpaceExplorationResult explore_error_rate(
    const trace::Dataset& dataset, std::span<const std::size_t> validation_indices,
    const nn::Network& net, trace::FeatureConfig config,
    const SpaceExplorationOptions& options = {});

}  // namespace shmd::hmd
