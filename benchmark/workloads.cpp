// The four workloads. Each keeps every client-side timestamp it takes in
// arrays reserved before the timed loop and computes exact quantiles from
// them; none reads the service's own latency histogram.
#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hmd/detector.hpp"
#include "ladder.hpp"
#include "net/client.hpp"

namespace shmd::bench {

namespace {

constexpr std::chrono::milliseconds kRecvDeadline{10000};

Clock::duration duration_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

bool scored(std::uint8_t outcome) {
  return outcome == static_cast<std::uint8_t>(serve::RequestOutcome::kScored);
}

void put(Metrics& m, const std::string& name, double value, const char* unit, std::uint64_t n) {
  m[name] = Metric{value, unit, n};
}

/// The closed-loop summary shared by scan, monitor and probe.
void summarize(WorkloadResult& out, Samples& latency_us, std::uint64_t correct) {
  put(out.metrics, "throughput_rps", static_cast<double>(out.scored) / out.seconds, "1/s",
      out.scored);
  put(out.metrics, "latency_p50_us", latency_us.quantile(0.50), "us", latency_us.size());
  put(out.metrics, "latency_p99_us", latency_us.quantile(0.99), "us", latency_us.size());
  put(out.metrics, "detect_accuracy",
      out.scored == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(out.scored),
      "fraction", out.scored);
}

/// Re-installs a fresh epoch at the operating point every kEpochPeriod: the
/// moving target the deployed service presents.
class EpochRoller {
 public:
  explicit EpochRoller(Stack& stack) : stack_(stack), thread_([this] { loop(); }) {}
  ~EpochRoller() { stop(); }
  EpochRoller(const EpochRoller&) = delete;
  EpochRoller& operator=(const EpochRoller&) = delete;

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kEpochPeriod, [this] { return stopping_; })) {
      lock.unlock();
      stack_.service->install_epoch(operating_epoch(stack_));
      lock.lock();
    }
  }

  Stack& stack_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mu_
  std::thread thread_;     ///< last: starts after the members it uses
};

// -- scan -------------------------------------------------------------------

/// Detection rounds: score_all over every long-horizon program, back to
/// back, from one generator thread under a static epoch. Latency is one
/// round (64 programs); throughput counts programs. The traced run replays
/// one program per round (every 64th request) inline, between rounds.
WorkloadResult run_scan(Stack& stack, double seconds, Ladder* ladder) {
  WorkloadResult out;
  std::vector<const trace::FeatureSet*> batch;
  for (const Request& r : stack.requests) batch.push_back(&r.features);
  const std::shared_ptr<const serve::DetectorEpoch> epoch = stack.service->current_epoch();
  const std::unique_ptr<Ladder::Lane> lane =
      ladder != nullptr ? std::make_unique<Ladder::Lane>(*ladder) : nullptr;
  Samples round_us(static_cast<std::size_t>(seconds * 1000.0) + 16);
  std::uint64_t correct = 0;
  std::uint64_t rounds = 0;
  const double cpu0 = thread_cpu_us();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + duration_of(seconds);
  Clock::time_point now = start;
  while (now < end) {
    const std::vector<std::vector<double>> scores = stack.service->score_all(batch);
    const Clock::time_point round_end = Clock::now();
    round_us.add(micros_between(now, round_end));
    now = round_end;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ++out.attempted;
      if (scores[i].size() != stack.requests[i].rows()) {
        ++out.failed;
        continue;
      }
      ++out.scored;
      if (hmd::fraction_vote(scores[i], epoch->threshold, epoch->vote_fraction) ==
          stack.requests[i].malware) {
        ++correct;
      }
    }
    if (lane != nullptr) {
      const std::size_t i = rounds % batch.size();
      lane->replay(i, rounds * batch.size() + i);
      now = Clock::now();
    }
    ++rounds;
  }
  out.seconds = seconds_between(start, now);
  out.generator_cpu_us = thread_cpu_us() - cpu0;
  summarize(out, round_us, correct);
  return out;
}

// -- monitor ----------------------------------------------------------------

/// Trusted collectors: two closed-loop UDS connections scoring labelled
/// 16-window programs while the epoch rolls. Traced replays run inline on
/// the client's own thread, so they meet the contention its requests meet.
WorkloadResult run_monitor(Stack& stack, double seconds, Ladder* ladder) {
  constexpr std::size_t kConnections = 2;
  const std::size_t n_requests = stack.requests.size();
  EpochRoller roller(stack);
  struct Client {
    WorkloadResult result;
    Samples latency_us;
    std::uint64_t correct = 0;
  };
  std::vector<Client> clients(kConnections);
  for (Client& c : clients) c.latency_us = Samples(static_cast<std::size_t>(seconds * 50000.0));
  std::atomic<std::uint64_t> next_id{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + duration_of(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      const double cpu0 = thread_cpu_us();
      try {
        net::NetClient client;
        client.set_recv_deadline(kRecvDeadline);
        client.connect(stack.uds);
        const std::unique_ptr<Ladder::Lane> lane =
            ladder != nullptr ? std::make_unique<Ladder::Lane>(*ladder) : nullptr;
        std::size_t i = c * n_requests / kConnections;  // stagger the programs
        while (Clock::now() < end) {
          const std::size_t index = i++ % n_requests;
          const Request& request = stack.requests[index];
          const std::uint64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
          ++me.result.attempted;
          ++me.result.frames_sent;
          const Clock::time_point t0 = Clock::now();
          const net::Reply reply = client.score(request.wire);
          const Clock::time_point t1 = Clock::now();
          ++me.result.replies;
          if (reply.result.has_value() && scored(reply.result->outcome)) {
            ++me.result.scored;
            me.latency_us.add(micros_between(t0, t1));
            if (reply.result->verdict == request.malware) ++me.correct;
          } else {
            ++me.result.failed;
          }
          if (lane != nullptr && id % kTraceEvery == 0) lane->replay(index, id);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "shmd_bench: monitor connection %zu: %s\n", c, e.what());
        ++me.result.failed;
      }
      me.result.generator_cpu_us = thread_cpu_us() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  WorkloadResult out;
  out.seconds = seconds_between(start, Clock::now());
  roller.stop();
  Samples latency_us;
  std::uint64_t correct = 0;
  for (Client& c : clients) {
    out.attempted += c.result.attempted;
    out.failed += c.result.failed;
    out.scored += c.result.scored;
    out.frames_sent += c.result.frames_sent;
    out.replies += c.result.replies;
    out.generator_cpu_us += c.result.generator_cpu_us;
    latency_us.append(c.latency_us);
    correct += c.correct;
  }
  summarize(out, latency_us, correct);
  return out;
}

// -- probe ------------------------------------------------------------------

/// An untrusted adversary: one pipelined TCP connection keeping 32
/// decision-only queries of 1-4 windows in flight while the epoch rolls.
/// Its latency is the in-window round trip, which by Little's law is about
/// the window over the throughput.
WorkloadResult run_probe(Stack& stack, double seconds, Ladder* ladder) {
  constexpr std::size_t kWindow = 32;
  constexpr std::size_t kRing = 1024;  ///< > any id spread the window allows
  struct Sent {
    Clock::time_point at;
    std::size_t index = 0;
    std::uint64_t id = 0;
  };
  const std::size_t n_requests = stack.requests.size();
  EpochRoller roller(stack);
  WorkloadResult out;
  std::vector<Sent> ring(kRing);
  Samples latency_us(static_cast<std::size_t>(seconds * 100000.0));
  std::uint64_t correct = 0;
  const double cpu0 = thread_cpu_us();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + duration_of(seconds);
  try {
    net::NetClient client;
    client.set_recv_deadline(kRecvDeadline);
    client.connect(stack.tcp);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const auto send_one = [&] {
      const std::size_t index = next++ % n_requests;
      const Clock::time_point at = Clock::now();
      const std::uint64_t id = client.send_verdict(stack.requests[index].wire);
      ring[id % kRing] = Sent{at, index, id};
      ++out.attempted;
      ++out.frames_sent;
      ++outstanding;
    };
    const auto receive_one = [&] {
      const net::Reply reply = client.recv_reply();
      const Clock::time_point now = Clock::now();
      ++out.replies;
      --outstanding;
      const Sent& sent = ring[reply.request_id % kRing];
      if (sent.id != reply.request_id) {
        ++out.failed;
        return;
      }
      if (reply.verdict.has_value() && scored(reply.verdict->outcome)) {
        ++out.scored;
        latency_us.add(micros_between(sent.at, now));
        if (reply.verdict->verdict == stack.requests[sent.index].malware) ++correct;
      } else {
        ++out.failed;
      }
      if (ladder != nullptr && sent.id % kTraceEvery == 0) ladder->offer(sent.index, sent.id);
    };
    for (std::size_t w = 0; w < kWindow; ++w) send_one();
    while (Clock::now() < end) {
      receive_one();
      send_one();
    }
    while (outstanding > 0) receive_one();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shmd_bench: probe connection: %s\n", e.what());
    ++out.failed;
  }
  out.seconds = seconds_between(start, Clock::now());
  out.generator_cpu_us = thread_cpu_us() - cpu0;
  roller.stop();
  summarize(out, latency_us, correct);
  return out;
}

// -- overload ---------------------------------------------------------------

constexpr std::chrono::milliseconds kDeadline{5};
/// Fixed absolute arrival rates, frozen at about 0.5x / 0.9x / 1.5x of the
/// seed commit's capacity on this workload (README.md). They stay fixed
/// when the code gets faster, so a gain shows as lower latency and misses.
constexpr double kRateLow = 6800.0;
constexpr double kRateKnee = 12200.0;
constexpr double kRateOver = 20300.0;
constexpr int kBisectionSteps = 6;

/// What happened to one arrival, written by the completion hook.
struct Record {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  serve::RequestOutcome outcome = serve::RequestOutcome::kPending;
  bool verdict = false;
  bool malware = false;
};

/// A reusable ticket. `free` is released by the completion hook after it
/// has written the record, so the pacer may reuse the slot and read the
/// record once it observes `free`.
struct Slot {
  serve::ScoreTicket ticket;
  std::atomic<bool> free{true};
  Record* record = nullptr;

  static void on_complete(void* arg) noexcept {
    auto* slot = static_cast<Slot*>(arg);
    Record& r = *slot->record;
    r.done_ns = ns_of(Clock::now());
    r.outcome = slot->ticket.outcome();
    r.verdict = slot->ticket.verdict();
    slot->free.store(true, std::memory_order_release);
  }
};

struct Phase {
  double rate = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t scored = 0;
  std::uint64_t on_time = 0;
  std::uint64_t failed = 0;
  std::uint64_t correct = 0;
  double goodput_rps = 0.0;
  double scored_rps = 0.0;  ///< work rate, late requests included
  double miss_frac = 1.0;
  double p99_us = 0.0;           ///< over every arrival, a miss counting as +inf
  double survivor_p50_us = 0.0;  ///< over the scored requests only
  double survivor_p99_us = 0.0;
  std::size_t survivors = 0;
  bool pass = false;  ///< p99 within the deadline and completions kept pace
};

/// One open-loop phase: arrivals due every 1/rate from an absolute
/// schedule, each submitted with try_submit and a deadline of due + 5 ms.
/// Latency runs from the due time to the completion hook; a refused, shed,
/// expired, failed or late request is a miss. Appends each arrival's
/// pacer lag (send time - due time) to `lag_us`.
Phase run_phase(Stack& stack, std::vector<Slot>& ring, double rate, double seconds,
                std::uint64_t& next_id, Samples& lag_us, Ladder* ladder) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  std::vector<Record> records(n);
  const double period_ns = 1e9 / rate;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t k) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(period_ns * static_cast<double>(k)));
  };
  const std::size_t n_requests = stack.requests.size();
  std::size_t k = 0;
  std::size_t slot_at = 0;
  while (k < n) {
    const Clock::time_point now = Clock::now();
    // The pacer spins instead of sleeping: a thread sleeping on an idle
    // vCPU can wake milliseconds late, and the lateness would be charged
    // to the service, since latency runs from the due time.
    if (due(k) > now) continue;
    do {  // submit every arrival already due before reading the clock again
      const Clock::time_point d = due(k);
      Record& r = records[k];
      r.due_ns = ns_of(d);
      r.sent_ns = ns_of(now);
      const std::size_t index = next_id % n_requests;
      const Request& request = stack.requests[index];
      r.malware = request.malware;
      Slot& slot = ring[slot_at++ % ring.size()];
      if (slot.free.load(std::memory_order_acquire)) {
        slot.free.store(false, std::memory_order_relaxed);
        slot.record = &r;
        (void)stack.service->try_submit(request.features, slot.ticket, d + kDeadline);
      } else {
        r.done_ns = r.sent_ns;  // no free ticket: shed at the client, a miss
      }
      if (ladder != nullptr && next_id % kTraceEvery == 0) ladder->offer(index, next_id);
      ++next_id;
      ++k;
    } while (k < n && due(k) <= now);
  }
  const std::int64_t last_sent_ns = ns_of(Clock::now());
  for (Slot& slot : ring) {
    while (!slot.free.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  Phase p;
  p.rate = rate;
  p.offered = n;
  Samples latency_us(n);
  Samples survivor_us(n);
  std::uint64_t kept_pace = 0;
  const std::int64_t deadline_ns = std::chrono::nanoseconds(kDeadline).count();
  for (const Record& r : records) {
    lag_us.add(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    if (r.done_ns <= last_sent_ns) ++kept_pace;
    if (r.outcome == serve::RequestOutcome::kScored) {
      ++p.scored;
      if (r.verdict == r.malware) ++p.correct;
      if (r.done_ns - r.due_ns <= deadline_ns) ++p.on_time;
      latency_us.add(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
      survivor_us.add(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    } else {
      if (r.outcome == serve::RequestOutcome::kFailed) ++p.failed;
      latency_us.add(std::numeric_limits<double>::infinity());
    }
  }
  const double elapsed_s = static_cast<double>(last_sent_ns - ns_of(t0)) / 1e9;
  p.goodput_rps = static_cast<double>(p.on_time) / std::max(elapsed_s, 1e-9);
  p.scored_rps = static_cast<double>(p.scored) / std::max(elapsed_s, 1e-9);
  p.miss_frac = 1.0 - static_cast<double>(p.on_time) / static_cast<double>(n);
  p.p99_us = latency_us.quantile(0.99);
  p.survivor_p50_us = survivor_us.quantile(0.50);
  p.survivor_p99_us = survivor_us.quantile(0.99);
  p.survivors = survivor_us.size();
  p.pass = p.miss_frac <= 0.01 && static_cast<double>(kept_pace) >= 0.99 * static_cast<double>(n);
  std::fprintf(stderr, "shmd_bench: overload %.0f rps: %.4f missed, p99 %.1f us, %s\n", rate,
               p.miss_frac, p.p99_us, p.pass ? "pass" : "fail");
  return p;
}

/// Open loop from one pacer thread: three fixed rates, then a log-space
/// bisection for the highest rate whose p99 stays within the deadline.
WorkloadResult run_overload(Stack& stack, double seconds, Ladder* ladder) {
  std::vector<Slot> ring(kQueueCapacity + 64);
  for (Slot& slot : ring) slot.ticket.set_completion_hook(&Slot::on_complete, &slot);
  Samples lag_us(static_cast<std::size_t>(kRateOver * seconds));
  std::uint64_t next_id = 0;
  const double cpu0 = thread_cpu_us();
  const Clock::time_point start = Clock::now();
  std::vector<Phase> phases;
  // The low phase is the longest: its survivors' latency is an end-to-end
  // metric. The bisection takes the remaining half of the run.
  phases.push_back(run_phase(stack, ring, kRateLow, 0.2 * seconds, next_id, lag_us, ladder));
  phases.push_back(run_phase(stack, ring, kRateKnee, 0.15 * seconds, next_id, lag_us, ladder));
  phases.push_back(run_phase(stack, ring, kRateOver, 0.15 * seconds, next_id, lag_us, ladder));
  const Phase low = phases[0];
  const Phase knee = phases[1];
  const Phase over = phases[2];
  // While saturated the service scores at its capacity, so the bracket
  // follows the code's speed and the bisection keeps a 1.7% resolution.
  const double capacity = std::max(over.scored_rps, 0.5 * kRateLow);
  double lo = 0.5 * capacity;
  double hi = 1.5 * capacity;
  for (int step = 0; step < kBisectionSteps; ++step) {
    const double rate = std::sqrt(lo * hi);
    phases.push_back(run_phase(stack, ring, rate, 0.5 * seconds / kBisectionSteps, next_id,
                               lag_us, ladder));
    (phases.back().pass ? lo : hi) = rate;
  }

  WorkloadResult out;
  out.seconds = seconds_between(start, Clock::now());
  out.generator_cpu_us = thread_cpu_us() - cpu0;
  std::uint64_t correct = 0;
  for (const Phase& p : phases) {
    out.attempted += p.offered;
    out.failed += p.failed;
    out.scored += p.scored;
    correct += p.correct;
  }
  out.pacer_lag_p99_us = lag_us.quantile(0.99);
  // The end-to-end latency is the survivors' at the low rate: it tracks
  // the service time and stays finite on every run. The knee and the
  // all-arrival percentiles are printed as detail.
  put(out.metrics, "throughput_rps", lo, "1/s", kBisectionSteps);
  put(out.metrics, "latency_p50_us", low.survivor_p50_us, "us", low.survivors);
  put(out.metrics, "latency_p99_us", low.survivor_p99_us, "us", low.survivors);
  put(out.metrics, "detect_accuracy",
      out.scored == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(out.scored),
      "fraction", out.scored);
  put(out.detail, "max_rate_rps", lo, "1/s", kBisectionSteps);
  put(out.detail, "latency_p99_us.low", low.p99_us, "us", low.offered);
  put(out.detail, "latency_p99_us.knee", knee.p99_us, "us", knee.offered);
  put(out.detail, "survivor_p99_us.knee", knee.survivor_p99_us, "us", knee.survivors);
  put(out.detail, "goodput_rps.over", over.goodput_rps, "1/s", over.offered);
  put(out.detail, "scored_rps.over", over.scored_rps, "1/s", over.offered);
  put(out.detail, "miss_frac.low", low.miss_frac, "fraction", low.offered);
  put(out.detail, "miss_frac.knee", knee.miss_frac, "fraction", knee.offered);
  put(out.detail, "miss_frac.over", over.miss_frac, "fraction", over.offered);
  put(out.detail, "pacer_lag_p99_us", out.pacer_lag_p99_us, "us", lag_us.size());
  return out;
}

}  // namespace

LoadShape load_shape(std::string_view workload) {
  if (workload == "monitor") return LoadShape{2, 2};
  if (workload == "probe") return LoadShape{1, 1};
  return LoadShape{1, 0};
}

WorkloadResult run_workload(std::string_view workload, Stack& stack, double seconds,
                            Ladder* ladder) {
  if (workload == "scan") return run_scan(stack, seconds, ladder);
  if (workload == "monitor") return run_monitor(stack, seconds, ladder);
  if (workload == "probe") return run_probe(stack, seconds, ladder);
  if (workload == "overload") return run_overload(stack, seconds, ladder);
  throw std::invalid_argument("unknown workload");
}

}  // namespace shmd::bench
