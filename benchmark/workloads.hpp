// The four workloads and the correctness probes run after them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace shmd::bench {

class Ladder;

inline constexpr std::array<std::string_view, 4> kWorkloads = {"scan", "monitor", "probe",
                                                               "overload"};

/// Load-generator threads and client connections per workload (run context).
struct LoadShape {
  std::size_t generator_threads = 1;
  std::size_t connections = 0;
};
[[nodiscard]] LoadShape load_shape(std::string_view workload);

struct WorkloadResult {
  std::uint64_t attempted = 0;    ///< requests the load offered (programs on scan)
  std::uint64_t failed = 0;       ///< errors, error frames and missing replies
  std::uint64_t scored = 0;       ///< requests scored
  std::uint64_t frames_sent = 0;  ///< wire frames the load sent
  std::uint64_t replies = 0;      ///< wire replies it received
  double seconds = 0.0;           ///< measured wall time
  /// CPU spent in the load-generator threads themselves, which
  /// cpu_us_per_req leaves out: it counts what the system spends.
  double generator_cpu_us = 0.0;
  double pacer_lag_p99_us = -1.0;  ///< overload only; <0 elsewhere
  /// throughput_rps, latency_p50_us, latency_p99_us, detect_accuracy.
  Metrics metrics;
  /// Workload-specific numbers that are printed but carry no bound.
  Metrics detail;
};

/// Run `workload` against `stack` for about `seconds`. With a ladder, every
/// kTraceEvery-th request is also offered to it for a traced replay.
[[nodiscard]] WorkloadResult run_workload(std::string_view workload, Stack& stack,
                                          double seconds, Ladder* ladder);

/// FNV-1a hashes of one fixed 256-request batch scored on fresh services:
/// scores in-process at max_batch 1 and 16 and over one pipelined UDS
/// connection, and kVerdict decisions in-process and over the wire.
struct ParityHashes {
  std::uint64_t score_inproc_batch1 = 0;
  std::uint64_t score_inproc_batch16 = 0;
  std::uint64_t score_uds = 0;
  std::uint64_t verdict_inproc = 0;
  std::uint64_t verdict_uds = 0;
};
[[nodiscard]] ParityHashes parity_hashes(const Stack& stack, const std::string& uds_path);

}  // namespace shmd::bench
