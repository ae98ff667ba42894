// The traced run's layer ladder. Sampled requests are replayed, under the
// load's own trace id, down the rungs kernel -> forward -> in-process
// service -> UDS / TCP, each rung timed around the benchmark's own call
// into the layer's public API. Each rung is a span whose parent is the rung
// above, so a rung's self time is its span minus its child's. Spans live in
// a preallocated vector and are written out as a Chrome trace-event file
// when the run ends.
//
// A replay runs on a Lane: inline on a closed-loop client's own thread
// (scan, monitor), where it meets the same contention as the client's
// requests, or on the ladder's tracer thread for loads that must not stall
// (the overload pacer, the probe's pipelined connection).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "faultsim/fault_injector.hpp"
#include "net/client.hpp"

namespace shmd::bench {

enum class Rung : std::uint8_t {
  kKernel,         ///< kernels::accumulate_blocks over the request's MACs
  kForwardExact,   ///< forward_batch under ExactContext (the floor)
  kForwardFaulty,  ///< forward_batch under FaultyContext at the operating point
  kWindowScores,   ///< StochasticHmd::window_scores (serial path, off the ladder)
  kFeatureSetPut,  ///< materialise the windows into a FeatureSet
  kEncode,         ///< encode_score_request + encode_frame
  kDecode,         ///< decode_score_request
  kServe,          ///< ScoringService::try_submit -> completion hook
  kUds,            ///< NetClient::score over the trusted Unix socket
  kTcp,            ///< kVerdict round trip over untrusted TCP
  kCount,
};
inline constexpr std::size_t kRungs = static_cast<std::size_t>(Rung::kCount);

struct Span {
  std::uint64_t trace_id = 0;
  Rung rung = Rung::kKernel;
  std::int64_t start_ns = 0;  ///< since the ladder was built
  std::int64_t dur_ns = 0;
};

/// Everything measured for one replayed request.
struct Replay {
  double us[kRungs] = {};
  double macs = 0.0;
  double faults = 0.0;
  double queue_wait_us = 0.0;  ///< serve latency minus the EWMA service time
  double predict_err = -1.0;   ///< |predicted - realised wait| / max(wait, EWMA); <0 = none
};

class Ladder {
 public:
  /// One thread's replay context: its own connections, injector, scratch
  /// and detector copy, so lanes replay concurrently without sharing state.
  class Lane {
   public:
    explicit Lane(Ladder& ladder);
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Replay request `index` down the ladder under trace id `id`. A replay
    /// that fails is counted in Ladder::failed(), never thrown.
    void replay(std::size_t index, std::uint64_t id);

   private:
    void run_rungs(std::size_t index, std::uint64_t id, Replay& out);
    void record(std::uint64_t id, Rung rung, Clock::time_point begin, Clock::time_point end,
                Replay& out);
    static void on_serve_complete(void* arg) noexcept;

    Ladder& ladder_;
    net::NetClient uds_;
    net::NetClient tcp_;
    hmd::StochasticHmd detector_;
    faultsim::FaultInjector injector_;
    nn::ForwardScratch scratch_;
    std::vector<double> tile_;
    std::vector<double> hidden_;
    std::vector<std::uint8_t> frame_bytes_;
    std::vector<Span> spans_;  ///< the current replay's spans
    serve::ScoreTicket ticket_;
    std::atomic<std::int64_t> serve_done_ns_{0};
    double sink_ = 0.0;  ///< consumes every result so no timed call is elided
  };

  /// Starts the tracer thread with its own lane. At most `max_replays`
  /// replays are kept.
  Ladder(Stack& stack, std::size_t max_replays);
  ~Ladder();

  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  /// Hand request `index` with trace id `id` to the tracer thread. Never
  /// blocks the load: a sample offered while the mailbox is full is dropped.
  void offer(std::size_t index, std::uint64_t id);

  /// Finish queued replays and join the tracer thread. Idempotent.
  void stop();

  /// Rung timings and self times as medians over the replays. Adds
  /// trace.ladder_sum_us, the UDS ladder's self times summed, to `detail`.
  [[nodiscard]] Metrics per_layer(Metrics& detail);
  void write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t replays() const noexcept { return replays_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }
  /// Wire frames the lanes sent and replies they received.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t replies() const noexcept {
    return replies_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void keep(const Replay& replay, const std::vector<Span>& spans);

  Stack& stack_;
  const Clock::time_point origin_ = Clock::now();
  const std::size_t max_replays_;
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::mutex kept_mu_;
  std::vector<Span> spans_;      // guarded by kept_mu_
  std::vector<Replay> replays_;  // guarded by kept_mu_

  // Mailbox between the load and the tracer thread.
  static constexpr std::size_t kMailbox = 8;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::size_t, std::uint64_t>> mailbox_;  // guarded by mu_
  bool stopping_ = false;                                        // guarded by mu_
  std::unique_ptr<Lane> lane_;  ///< the tracer thread's
  std::thread thread_;          ///< last: starts after every member it uses exists
};

}  // namespace shmd::bench
