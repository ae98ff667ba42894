#include "hmd/stochastic_hmd.hpp"

namespace shmd::hmd {

namespace {

/// Restores the injector's configured (direct-er) rate when a
/// domain-driven detection burst ends. Without this, the last
/// domain-derived rate silently survives detach_domain() and later
/// direct-er scoring runs at the wrong physical operating point.
/// Exception-safe by construction: the guard unwinds even when the rail
/// rejects the offset mid-burst.
class ErrorRateRestorer {
 public:
  explicit ErrorRateRestorer(faultsim::FaultInjector& injector)
      : injector_(injector), saved_(injector.error_rate()) {}
  ~ErrorRateRestorer() { injector_.set_error_rate(saved_); }
  ErrorRateRestorer(const ErrorRateRestorer&) = delete;
  ErrorRateRestorer& operator=(const ErrorRateRestorer&) = delete;

 private:
  faultsim::FaultInjector& injector_;
  double saved_;
};

}  // namespace

StochasticHmd::StochasticHmd(nn::Network net, trace::FeatureConfig config, double error_rate,
                             faultsim::BitFaultDistribution distribution,
                             std::uint64_t noise_seed)
    : net_(std::move(net)),
      config_(config),
      scorer_(error_rate, distribution, noise_seed) {}

void StochasticHmd::attach_domain(volt::VoltageDomain& domain, double offset_mv,
                                  std::optional<std::uint64_t> token) {
  domain_ = &domain;
  offset_mv_ = offset_mv;
  token_ = token;
}

void StochasticHmd::detach_domain() noexcept {
  domain_ = nullptr;
  offset_mv_ = 0.0;
  token_.reset();
}

void StochasticHmd::set_error_rate(double er) { scorer_.injector().set_error_rate(er); }

void StochasticHmd::score_live(std::span<const std::vector<double>> windows,
                               std::vector<double>& scores) {
  // Deployment path: undervolt for exactly the duration of this detection
  // burst (TEE enter/exit semantics), with the error rate derived from the
  // physical operating point — and the configured direct-er rate restored
  // when the burst ends. Declaration order makes the guard restore the
  // rail before the restorer resets the rate.
  std::optional<ErrorRateRestorer> restore;
  std::optional<volt::UndervoltGuard> undervolt;
  if (domain_ != nullptr) {
    restore.emplace(scorer_.injector());
    undervolt.emplace(*domain_, offset_mv_, token_);
    scorer_.injector().set_error_rate(domain_->error_rate());
  }
  (void)scorer_.score(net_, windows, next_seq_, scores);
  ++next_seq_;  // a rejected program consumes no stream
  fault_stats_.merge(scorer_.injector().stats());
}

std::vector<double> StochasticHmd::window_scores(const trace::FeatureSet& features) {
  std::vector<double> scores;
  score_live(features.windows(config_), scores);
  return scores;
}

double StochasticHmd::score_window(std::span<const double> window) {
  one_window_.front().assign(window.begin(), window.end());
  score_live(one_window_, one_score_);
  return one_score_.front();
}

std::vector<double> StochasticHmd::window_scores_nominal(
    const trace::FeatureSet& features) const {
  std::vector<double> scores;
  for (const std::vector<double>& window : features.windows(config_)) {
    scores.push_back(net_.forward(window)[0]);
  }
  return scores;
}

}  // namespace shmd::hmd
