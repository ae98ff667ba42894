// shmd_bench: one run of one workload of the repository benchmark.
//
//   shmd_bench --workload scan|monitor|probe|overload --seed N --seconds T
//              [--trace 0|1] [--trace-file PATH] [--uds PATH]
//
// Sets the stack up several times (setup_s is the median), runs the
// workload, drains the service, runs the cross-path parity probe, and
// prints one JSON object on stdout: the run context, the metrics, and the
// raw inputs of the correctness gates, which benchmark/run.py evaluates.
// With --trace 1 the run is split in two halves, untraced then traced, and
// the metrics are the per-layer ones from the ladder (ladder.hpp).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ladder.hpp"
#include "nn/kernels/kernels.hpp"
#include "workloads.hpp"

namespace {

using namespace shmd;
using namespace shmd::bench;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kMaxReplays = 20000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_file;
  std::string uds = "shmd_bench.sock";
};

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value != "0";
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else if (flag == "--uds") {
      opt.uds = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0) return std::nullopt;  // a flag without its value
  if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) == kWorkloads.end()) {
    return std::nullopt;
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) return std::nullopt;
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// With 4 or more CPUs the load generator gets one CPU and the system under
/// test the others, so a spinning pacer or a client thread never queues
/// behind a scoring worker on the same CPU (which shows up as milliseconds
/// of pacer lag). A thread inherits the affinity of the thread that creates
/// it, so the main thread pins itself to the system's CPUs while it builds
/// the service, and to the generator's CPU while it drives the load.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&generator_);
    CPU_ZERO(&system_);
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 4) return;
    bool first = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) continue;
      CPU_SET(cpu, first ? &generator_ : &system_);
      first = false;
    }
    enabled_ = true;
  }
  void pin_system() const { pin(system_); }
  void pin_generator() const { pin(generator_); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

 private:
  void pin(const cpu_set_t& set) const {
    if (enabled_) (void)::sched_setaffinity(0, sizeof(set), &set);
  }

  bool enabled_ = false;
  cpu_set_t generator_;
  cpu_set_t system_;
};

// -- JSON output --------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string integer(std::uint64_t v) { return std::to_string(v); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(m.value) + ", \"unit\": " + quoted(m.unit) +
           ", \"n\": " + integer(m.n) + "}";
  }
  return out + "}";
}

void add_run(WorkloadResult& total, const WorkloadResult& run) {
  total.attempted += run.attempted;
  total.failed += run.failed;
  total.scored += run.scored;
  total.frames_sent += run.frames_sent;
  total.replies += run.replies;
  total.pacer_lag_p99_us = std::max(total.pacer_lag_p99_us, run.pacer_lag_p99_us);
}

int run(const Options& opt) {
  const std::size_t nproc = available_cpus();
  const CpuSplit cpus;
  cpus.pin_system();
  std::vector<double> setup_runs_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();  // the previous stack releases its listeners first
    const Clock::time_point t0 = Clock::now();
    stack = build_stack(opt.workload, opt.seed, opt.uds);
    setup_runs_s.push_back(seconds_between(t0, Clock::now()));
  }
  serve::ScoringService& service = *stack->service;

  WorkloadResult total;
  Metrics metrics;
  Metrics detail;
  std::uint64_t ladder_failed = 0;
  if (!opt.trace) {
    cpus.pin_generator();
    const double cpu0 = process_cpu_us();
    const WorkloadResult r = run_workload(opt.workload, *stack, opt.seconds, nullptr);
    const double system_cpu_us = process_cpu_us() - cpu0 - r.generator_cpu_us;
    add_run(total, r);
    metrics = r.metrics;
    detail = r.detail;
    metrics["setup_s"] = Metric{median(setup_runs_s), "s", setup_runs_s.size()};
    metrics["cpu_us_per_req"] =
        Metric{system_cpu_us / static_cast<double>(std::max<std::uint64_t>(r.scored, 1)), "us",
               r.scored};
    metrics["peak_rss_mb"] = Metric{peak_rss_mb(), "MiB", 0};
  } else {
    // Untraced first half, then the traced half: the per-layer numbers come
    // from the ladder, and the throughput lost between the halves is the
    // tracing overhead.
    cpus.pin_generator();
    const WorkloadResult plain = run_workload(opt.workload, *stack, opt.seconds / 2, nullptr);
    add_run(total, plain);
    cpus.pin_system();  // the tracer replays on the system's CPUs, beside the service
    Ladder ladder(*stack, kMaxReplays);
    cpus.pin_generator();
    const serve::ServiceStatsSnapshot s0 = service.stats();
    const Clock::time_point t0 = Clock::now();
    const WorkloadResult traced = run_workload(opt.workload, *stack, opt.seconds / 2, &ladder);
    const double wall_s = seconds_between(t0, Clock::now());
    const serve::ServiceStatsSnapshot s1 = service.stats();
    ladder.stop();
    add_run(total, traced);
    total.frames_sent += ladder.frames_sent();
    total.replies += ladder.replies();
    ladder_failed = ladder.failed();

    metrics = ladder.per_layer(detail);
    const double e2e_p50 = plain.metrics.at("latency_p50_us").value;
    detail["trace.ladder_vs_e2e_p50"] =
        Metric{detail["trace.ladder_sum_us"].value / e2e_p50, "ratio", 0};
    detail["trace.untraced_latency_p50_us"] = plain.metrics.at("latency_p50_us");
    detail["trace.replays"] = Metric{static_cast<double>(ladder.replays()), "count", 0};
    detail["trace.dropped"] = Metric{static_cast<double>(ladder.dropped()), "count", 0};
    metrics["trace.overhead_frac"] =
        Metric{1.0 - traced.metrics.at("throughput_rps").value /
                         plain.metrics.at("throughput_rps").value,
               "fraction", 0};

    const std::uint64_t scored = s1.scored - s0.scored;
    const std::uint64_t enqueued = s1.enqueued - s0.enqueued;
    const std::uint64_t refused = s1.rejected_on_admission - s0.rejected_on_admission;
    const std::uint64_t submitted = enqueued + refused + (s1.shed - s0.shed);
    const double ewma_ns = static_cast<double>(service.wait_predictor().ewma_service_ns());
    metrics["serve.worker_busy_frac"] =
        Metric{static_cast<double>(scored) * ewma_ns /
                   (static_cast<double>(service.num_workers()) * wall_s * 1e9),
               "fraction", scored};
    metrics["admit.ontime_frac"] =
        Metric{static_cast<double>(s1.goodput() - s0.goodput()) /
                   static_cast<double>(std::max<std::uint64_t>(enqueued, 1)),
               "fraction", enqueued};
    metrics["admit.reject_frac"] =
        Metric{static_cast<double>(refused) /
                   static_cast<double>(std::max<std::uint64_t>(submitted, 1)),
               "fraction", submitted};
    // Zero under this configuration (capacity 1024, fifo): printed, not listed.
    detail["admit.shed_frac"] =
        Metric{static_cast<double>(s1.shed - s0.shed) /
                   static_cast<double>(std::max<std::uint64_t>(submitted, 1)),
               "fraction", submitted};
    detail["admit.evict_frac"] =
        Metric{static_cast<double>(s1.evicted - s0.evicted) /
                   static_cast<double>(std::max<std::uint64_t>(enqueued, 1)),
               "fraction", enqueued};
    if (!opt.trace_file.empty()) ladder.write_chrome_trace(opt.trace_file);
  }

  // Drain: every accepted ticket completes, then the gates read the books.
  cpus.pin_system();
  stack->server->stop();
  service.close();
  for (int i = 0; i < 5000 && service.stats().in_flight() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::ServiceStatsSnapshot stats = service.stats();
  const net::NetServerStats net_stats = stack->server->stats();
  if (opt.trace) {
    metrics["net.out_buffer_peak_kb"] =
        Metric{static_cast<double>(net_stats.out_buffer_peak) / 1024.0, "KiB", 0};
    detail["net.reads_paused"] =
        Metric{static_cast<double>(net_stats.reads_paused), "count", 0};
    detail["net.shed_responses"] =
        Metric{static_cast<double>(net_stats.shed_responses), "count", 0};
  }
  detail["error_frac"] = Metric{static_cast<double>(total.failed) /
                                    static_cast<double>(std::max<std::uint64_t>(total.attempted, 1)),
                                "fraction", total.attempted};
  const ParityHashes parity = parity_hashes(*stack, opt.uds + ".parity");

  const LoadShape shape = load_shape(opt.workload);
  const bool rolls = opt.workload == "monitor" || opt.workload == "probe";
  std::string out = "{";
  out += "\"workload\": " + quoted(opt.workload);
  out += ", \"seed\": " + integer(opt.seed);
  out += ", \"seconds\": " + number(opt.seconds);
  out += ", \"trace\": " + integer(opt.trace ? 1 : 0);
  out += ", \"context\": {\"nproc\": " + integer(nproc) +
         ", \"build_type\": " + quoted(SHMD_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(SHMD_BENCH_COMPILER) +
         ", \"kernel\": " + quoted(nn::kernels::active().name) +
         ", \"workers\": " + integer(service.num_workers()) +
         ", \"generator_threads\": " + integer(shape.generator_threads) +
         ", \"connections\": " + integer(shape.connections) +
         ", \"generator_cpu_pinned\": " + (cpus.enabled() ? "true" : "false") +
         ", \"error_rate\": " + number(kErrorRate) +
         ", \"epoch_period_ms\": " + integer(rolls ? kEpochPeriod.count() : 0) + "}";
  out += ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup_runs_s.size(); ++i) {
    out += (i == 0 ? "" : ", ") + number(setup_runs_s[i]);
  }
  out += "]";
  out += ", \"attempted\": " + integer(total.attempted);
  out += ", \"failed\": " + integer(total.failed + ladder_failed);
  out += ", \"metrics\": " + metrics_json(metrics);
  out += ", \"detail\": " + metrics_json(detail);
  out += ", \"gates\": {\"accounting\": {";
  out += "\"enqueued\": " + integer(stats.enqueued);
  out += ", \"scored\": " + integer(stats.scored);
  out += ", \"deadline_missed\": " + integer(stats.deadline_missed);
  out += ", \"failed\": " + integer(stats.failed);
  out += ", \"evicted\": " + integer(stats.evicted);
  out += ", \"in_flight\": " + integer(stats.in_flight());
  out += ", \"shed\": " + integer(stats.shed);
  out += ", \"rejected_on_admission\": " + integer(stats.rejected_on_admission);
  out += ", \"frames_in\": " + integer(net_stats.frames_in);
  out += ", \"frames_out\": " + integer(net_stats.frames_out);
  out += ", \"client_frames_sent\": " + integer(total.frames_sent);
  out += ", \"client_replies\": " + integer(total.replies);
  out += ", \"load_failed\": " + integer(total.failed);
  out += ", \"ladder_failed\": " + integer(ladder_failed) + "}";
  out += ", \"parity\": {\"score_inproc_batch1\": " + hex(parity.score_inproc_batch1);
  out += ", \"score_inproc_batch16\": " + hex(parity.score_inproc_batch16);
  out += ", \"score_uds\": " + hex(parity.score_uds);
  out += ", \"verdict_inproc\": " + hex(parity.verdict_inproc);
  out += ", \"verdict_uds\": " + hex(parity.verdict_uds) + "}";
  out += ", \"health\": {\"error_rate\": " + number(kErrorRate) + ", \"epochs\": [";
  bool first = true;
  for (const auto& [id, faults] : stats.per_epoch_faults) {
    out += (first ? "[" : ", [") + integer(id) + ", " + integer(faults.operations) + ", " +
           integer(faults.faults) + "]";
    first = false;
  }
  out += "], \"folded\": [" + integer(stats.folded_epochs) + ", " +
         integer(stats.folded_faults.operations) + ", " + integer(stats.folded_faults.faults) +
         "]}";
  out += ", \"pacer_lag_p99_us\": " +
         (total.pacer_lag_p99_us < 0.0 ? std::string("null") : number(total.pacer_lag_p99_us));
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt.has_value()) {
    std::fprintf(stderr,
                 "usage: shmd_bench --workload scan|monitor|probe|overload --seed N "
                 "--seconds T [--trace 0|1] [--trace-file PATH] [--uds PATH]\n");
    return 2;
  }
  try {
    return run(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shmd_bench: %s\n", e.what());
    return 1;
  }
}
