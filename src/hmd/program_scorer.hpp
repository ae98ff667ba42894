// ProgramScorer: the defense's one scoring operation.
//
// Stochastic-HMD scores a program by running its feature windows through
// the faulty forward pass under a fresh fault stream (§III) and voting on
// the per-window scores. Every live scoring path in the repository —
// StochasticHmd, the ScoringService workers and the in-process attack
// oracle — goes through score() below, so they share one seeding rule:
//
//   the fault stream of item `seq` is Xoshiro256ss(stream_seed(seed, seq)).
//
// A program's scores are therefore a pure function of (network, operating
// point, windows, seed, seq) — never of which thread scored it, what was
// scored before it, or how requests were batched. That is the determinism
// contract the serving CI hashes pin down across worker count, batch size,
// admission policy, ISA and transport.
//
// The scorer owns everything the hot path touches (fault injector,
// forward scratch, flatten tile) and writes scores into a caller-owned
// vector, so a scorer reused on same-shaped programs allocates nothing in
// steady state. One scorer per thread; it is not thread-safe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faultsim/fault_injector.hpp"
#include "hmd/detector.hpp"
#include "nn/network.hpp"

namespace shmd::hmd {

class ProgramScorer {
 public:
  /// `seed` is the base of every per-item fault stream; `error_rate` and
  /// `distribution` configure the injector (callers move the operating
  /// point through injector()).
  ProgramScorer(double error_rate, faultsim::BitFaultDistribution distribution, std::uint64_t seed);

  /// Score one program's `windows` through `net` under fault stream
  /// (seed, seq). Throws std::invalid_argument — before touching the
  /// injector — when a window's width is not net.input_dim(). On return
  /// `scores` holds one live score per window (its capacity is reused),
  /// injector().stats() holds exactly this program's fault delta, and the
  /// result is the fraction_vote verdict at (threshold, vote_fraction).
  bool score(const nn::Network& net, std::span<const std::vector<double>> windows,
             std::uint64_t seq, std::vector<double>& scores, double threshold = 0.5,
             double vote_fraction = Detector::kDefaultVoteFraction);

  [[nodiscard]] faultsim::FaultInjector& injector() noexcept { return injector_; }
  [[nodiscard]] const faultsim::FaultInjector& injector() const noexcept { return injector_; }

 private:
  faultsim::FaultInjector injector_;
  nn::ForwardScratch scratch_;
  std::vector<double> tile_;  ///< windows-major flatten of the program
  std::uint64_t seed_;
};

}  // namespace shmd::hmd
