#include "hmd/program_scorer.hpp"

#include <stdexcept>

#include "nn/arithmetic.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::hmd {

ProgramScorer::ProgramScorer(double error_rate, faultsim::BitFaultDistribution distribution,
                             std::uint64_t seed)
    : injector_(error_rate, distribution, seed), seed_(seed) {}

bool ProgramScorer::score(const nn::Network& net, std::span<const std::vector<double>> windows,
                          std::uint64_t seq, std::vector<double>& scores, double threshold,
                          double vote_fraction) {
  const std::size_t in_dim = net.input_dim();
  tile_.clear();
  for (const std::vector<double>& window : windows) {
    if (window.size() != in_dim) {
      throw std::invalid_argument("ProgramScorer: window width != network input width");
    }
    tile_.insert(tile_.end(), window.begin(), window.end());
  }
  injector_.generator() = rng::Xoshiro256ss(rng::stream_seed(seed_, seq));
  injector_.reset_stats();
  nn::FaultyContext ctx(injector_);
  const std::span<const double> out = net.forward_batch(tile_, windows.size(), ctx, scratch_);
  const std::size_t out_dim = net.output_dim();
  scores.resize(windows.size());
  for (std::size_t r = 0; r < windows.size(); ++r) scores[r] = out[r * out_dim];
  return fraction_vote(scores, threshold, vote_fraction);
}

}  // namespace shmd::hmd
