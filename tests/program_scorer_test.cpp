// Tests for hmd::ProgramScorer, the one live scoring path: the service,
// the in-process attack oracle and StochasticHmd must all reproduce it
// bit for bit at (seed, seq); a rejected program must leave no trace;
// the injector's stats after a call are exactly that program's fault
// delta; and a warm scorer scores without touching the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "attack/oracle.hpp"
#include "hmd/program_scorer.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"

// Allocation probe: global operator new replacement counting every heap
// allocation in the process (the same pattern as runtime_test.cpp). The
// operators stay out of line so GCC cannot pair an inlined malloc()/free()
// with the other side's operator and flag -Wmismatched-new-delete.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace shmd::hmd {
namespace {

const trace::FeatureConfig kFc{trace::FeatureView::kInsnCategory, 2048};
constexpr double kErrorRate = 0.05;

nn::Network make_net() {
  const std::vector<std::size_t> topo{8, 12, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

trace::FeatureSet make_features(std::uint64_t seed, std::size_t n_windows, std::size_t width = 8) {
  rng::Xoshiro256ss gen(seed);
  std::vector<std::vector<double>> windows(n_windows, std::vector<double>(width));
  for (auto& window : windows) {
    for (double& x : window) x = gen.uniform01();
  }
  trace::FeatureSet fs;
  fs.put(kFc, std::move(windows));
  return fs;
}

/// Programs of 1..7 windows, so batches mix request sizes.
std::vector<trace::FeatureSet> make_workload(std::size_t n) {
  std::vector<trace::FeatureSet> workload;
  workload.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workload.push_back(make_features(300 + i, 1 + i % 7));
  return workload;
}

ProgramScorer make_scorer(std::uint64_t seed) {
  return ProgramScorer(kErrorRate, faultsim::BitFaultDistribution::measured(), seed);
}

TEST(ProgramScorer, ServiceRequestKScoresAsScorerAtSeedK) {
  const nn::Network net = make_net();
  const std::vector<trace::FeatureSet> workload = make_workload(48);
  serve::ServeConfig config;
  config.num_workers = 2;
  config.max_batch = 16;
  config.seed = 0xC0DEULL;
  serve::ScoringService service(serve::make_epoch(StochasticHmd(net, kFc, kErrorRate)), config);
  std::vector<serve::ScoreTicket> tickets(workload.size());
  // One submitter: the k-th submission is the k-th accepted request.
  for (std::size_t k = 0; k < workload.size(); ++k) {
    ASSERT_EQ(service.submit(workload[k], tickets[k]), serve::SubmitStatus::kAccepted);
  }
  ProgramScorer scorer = make_scorer(config.seed);
  std::vector<double> expected;
  for (std::size_t k = 0; k < workload.size(); ++k) {
    tickets[k].wait();
    ASSERT_EQ(tickets[k].outcome(), serve::RequestOutcome::kScored) << k;
    const bool verdict = scorer.score(net, workload[k].windows(kFc), k, expected);
    EXPECT_EQ(tickets[k].scores(), expected) << "request " << k;
    EXPECT_EQ(tickets[k].verdict(), verdict) << "request " << k;
  }
}

TEST(ProgramScorer, NthDetectorCallScoresAsScorerAtNoiseSeedN) {
  // window_scores and score_window share one per-detector sequence: call
  // n runs under stream (noise_seed, n), whichever entry point made it.
  constexpr std::uint64_t kNoiseSeed = 0xABCDULL;
  const nn::Network net = make_net();
  StochasticHmd det(net, kFc, kErrorRate, faultsim::BitFaultDistribution::measured(), kNoiseSeed);
  ProgramScorer scorer = make_scorer(kNoiseSeed);
  const std::vector<trace::FeatureSet> workload = make_workload(6);
  std::vector<double> expected;
  for (std::uint64_t n = 0; n < workload.size(); ++n) {
    (void)scorer.score(net, workload[n].windows(kFc), n, expected);
    EXPECT_EQ(det.window_scores(workload[n]), expected) << "call " << n;
  }
  const std::vector<double>& window = workload[0].windows(kFc).front();
  const std::vector<std::vector<double>> one{window};
  (void)scorer.score(net, one, workload.size(), expected);
  EXPECT_EQ(det.score_window(window), expected.front());
}

TEST(ProgramScorer, WidthMismatchThrowsAndLeavesNoTrace) {
  const nn::Network net = make_net();
  const trace::FeatureSet good = make_features(1, 5);
  const trace::FeatureSet bad = make_features(2, 3, /*width=*/7);

  ProgramScorer scorer = make_scorer(9);
  std::vector<double> scores;
  (void)scorer.score(net, good.windows(kFc), 0, scores);
  const faultsim::FaultStats before = scorer.injector().stats();
  const std::vector<double> scores_before = scores;
  EXPECT_THROW((void)scorer.score(net, bad.windows(kFc), 1, scores), std::invalid_argument);
  EXPECT_EQ(scorer.injector().stats(), before);
  EXPECT_EQ(scores, scores_before);

  // The oracle's sequence number is untouched too: a rejected query
  // followed by a good one replays exactly like the good one alone.
  const StochasticHmd victim(net, kFc, kErrorRate);
  attack::InProcessOracle with_reject(victim, 17);
  attack::InProcessOracle clean(victim, 17);
  EXPECT_THROW((void)with_reject.query(bad), std::invalid_argument);
  (void)with_reject.query(good);
  (void)clean.query(good);
  EXPECT_EQ(with_reject.decision_hash(), clean.decision_hash());
}

TEST(ProgramScorer, FaultDeltaCoversEveryMacOfTheProgram) {
  const nn::Network net = make_net();
  ProgramScorer scorer = make_scorer(3);
  StochasticHmd det(net, kFc, kErrorRate);
  std::vector<double> scores;
  std::uint64_t total_rows = 0;
  for (const std::size_t rows : {5u, 2u, 7u}) {
    const trace::FeatureSet fs = make_features(40 + rows, rows);
    (void)scorer.score(net, fs.windows(kFc), rows, scores);
    // A delta, not a running total: reset per program.
    EXPECT_EQ(scorer.injector().stats().operations, rows * net.mac_count()) << rows;
    (void)det.window_scores(fs);
    total_rows += rows;
  }
  // The detector's fault_stats() sums the per-program deltas.
  EXPECT_EQ(det.fault_stats().operations, total_rows * net.mac_count());
  EXPECT_GT(det.fault_stats().faults, 0u);
}

TEST(ProgramScorer, SteadyStateScoreIsAllocationFree) {
  const nn::Network net = make_net();
  ProgramScorer scorer = make_scorer(5);
  const trace::FeatureSet fs = make_features(8, 16);
  const std::vector<std::vector<double>>& windows = fs.windows(kFc);
  std::vector<double> scores;
  (void)scorer.score(net, windows, 0, scores);  // warm-up: buffers grow here only

  std::uint64_t flagged = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t seq = 1; seq <= 256; ++seq) {
    flagged += scorer.score(net, windows, seq, scores) ? 1 : 0;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state score must not touch the heap (flagged="
                           << flagged << ")";
}

}  // namespace
}  // namespace shmd::hmd
