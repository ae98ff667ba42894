// Shared pieces of the repository benchmark (README.md): the fixed system
// configuration, the set-up stack every workload runs against, exact
// quantiles over kept samples, and the metric record shmd_bench prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hmd/stochastic_hmd.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "serve/scoring_service.hpp"
#include "trace/dataset.hpp"
#include "util/cli.hpp"

namespace shmd::bench {

using Clock = std::chrono::steady_clock;

// Fixed system configuration: identical for every workload and seed, so a
// change in a metric comes from the code, not from the set-up.
inline constexpr double kErrorRate = 0.05;  ///< the operating point
inline constexpr std::size_t kWorkers = 2;  ///< independent of the host core count
inline constexpr std::size_t kQueueCapacity = 1024;
inline constexpr std::uint64_t kServiceSeed = 0x5E7F1CEULL;
inline constexpr std::chrono::milliseconds kEpochPeriod{100};
/// The traced run replays every kTraceEvery-th request through the ladder.
inline constexpr std::uint64_t kTraceEvery = 64;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One request a workload can send: the program's windows both as the
/// in-process FeatureSet and as the wire payload, plus the program label.
struct Request {
  trace::FeatureSet features;
  net::ScoreRequest wire;
  bool malware = false;

  [[nodiscard]] std::size_t rows() const noexcept { return wire.windows.size(); }
};

/// Everything set-up builds before the first timed request: the trained
/// detector, the seeded request corpus, the service and its listeners
/// (trusted UDS with raw scores, untrusted TCP with verdicts only).
struct Stack {
  trace::FeatureConfig features;
  std::unique_ptr<hmd::StochasticHmd> detector;
  std::vector<Request> requests;
  std::unique_ptr<serve::ScoringService> service;
  std::unique_ptr<net::NetServer> server;  ///< declared after service: stops first
  util::Endpoint uds;
  util::Endpoint tcp;
};

/// Build the stack for `workload`; `seed` drives only the request corpus.
[[nodiscard]] std::unique_ptr<Stack> build_stack(std::string_view workload, std::uint64_t seed,
                                                 const std::string& uds_path);

/// A fresh epoch at the operating point (the epoch roller installs these).
[[nodiscard]] serve::DetectorEpoch operating_epoch(const Stack& stack);

/// Every sample of one quantity, kept so quantiles are exact. Capacity is
/// reserved up front so recording on the hot path does not allocate.
/// Samples are stored as float (relative precision 6e-8, a few nanoseconds
/// on a 40 ms round) to halve the benchmark's own share of the process's
/// peak RSS.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 0) { values_.reserve(capacity); }
  void add(double v) { values_.push_back(static_cast<float>(v)); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Nearest-rank quantile (0 when empty). Sorts on first use.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double median() { return quantile(0.5); }

 private:
  std::vector<float> values_;
  std::size_t sorted_size_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;  ///< samples behind the value (0 = a single measurement)
};
using Metrics = std::map<std::string, Metric>;

/// Process CPU time (user + system, all threads) in microseconds.
[[nodiscard]] double process_cpu_us();
/// CPU time of the calling thread in microseconds.
[[nodiscard]] double thread_cpu_us();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a folding, used for the cross-path parity hashes.
class Fnv1a {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace shmd::bench
