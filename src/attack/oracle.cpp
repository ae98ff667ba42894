#include "attack/oracle.hpp"

namespace shmd::attack {

namespace {

/// FNV-1a, one byte at a time — the same digest idiom the loadgens use
/// for score hashes.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint8_t byte) noexcept {
  return (hash ^ byte) * 0x100000001B3ULL;
}

}  // namespace

OracleReply QueryOracle::query(const trace::FeatureSet& features) {
  charge(1);
  OracleReply reply = do_query(features);
  observe(reply);
  return reply;
}

std::vector<OracleReply> QueryOracle::query_many(
    std::span<const trace::FeatureSet* const> batch) {
  charge(batch.size());
  std::vector<OracleReply> replies = do_query_many(batch);
  for (const OracleReply& reply : replies) observe(reply);
  return replies;
}

std::vector<OracleReply> QueryOracle::do_query_many(
    std::span<const trace::FeatureSet* const> batch) {
  std::vector<OracleReply> replies;
  replies.reserve(batch.size());
  for (const trace::FeatureSet* features : batch) replies.push_back(do_query(*features));
  return replies;
}

void QueryOracle::charge(std::uint64_t n) {
  if (budget_ && used_ + n > *budget_) throw OracleBudgetExhausted();
  used_ += n;
}

void QueryOracle::observe(const OracleReply& reply) noexcept {
  for (const bool d : reply.decisions) hash_ = fnv1a(hash_, d ? 1 : 0);
  hash_ = fnv1a(hash_, reply.verdict ? 1 : 0);
  for (int b = 0; b < 8; ++b) {
    hash_ = fnv1a(hash_, static_cast<std::uint8_t>(reply.epoch_id >> (8 * b)));
  }
}

OracleReply DetectorOracle::do_query(const trace::FeatureSet& features) {
  OracleReply reply;
  std::vector<double> scores = victim_->window_scores(features);
  reply.decisions.resize(scores.size());
  for (std::size_t w = 0; w < scores.size(); ++w) {
    reply.decisions[w] = scores[w] >= threshold_;
  }
  reply.verdict = hmd::fraction_vote(scores, threshold_, vote_fraction_);
  if (leak_scores_) reply.scores = std::move(scores);
  return reply;
}

InProcessOracle::InProcessOracle(const hmd::StochasticHmd& victim,
                                 std::uint64_t service_seed, double threshold,
                                 double vote_fraction)
    : net_(victim.network()), config_(victim.feature_config()),
      scorer_(victim.error_rate(), victim.fault_distribution(), service_seed),
      threshold_(threshold), vote_fraction_(vote_fraction) {}

std::uint64_t InProcessOracle::install_error_rate(double error_rate) {
  scorer_.injector().set_error_rate(error_rate);
  return ++epoch_id_;
}

OracleReply InProcessOracle::do_query(const trace::FeatureSet& features) {
  OracleReply reply;
  reply.verdict = scorer_.score(net_, features.windows(config_), next_seq_, scores_,
                                threshold_, vote_fraction_);
  ++next_seq_;  // only after the scorer accepted the program
  reply.epoch_id = epoch_id_;
  reply.decisions.resize(scores_.size());
  for (std::size_t r = 0; r < scores_.size(); ++r) reply.decisions[r] = scores_[r] >= threshold_;
  // Decision-only: the deployed channel never leaks scores.
  return reply;
}

}  // namespace shmd::attack
