// Set-up, timed as setup_s: the trained detector, the seeded request
// corpus, and the service with its listeners. Also the measurement helpers
// declared in bench.hpp.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "bench.hpp"
#include "hmd/builders.hpp"
#include "rng/xoshiro256ss.hpp"
#include "trace/program_factory.hpp"
#include "trace/trace_collector.hpp"

namespace shmd::bench {

namespace {

/// The detector's training corpus is fixed: --seed never changes the model.
constexpr std::uint64_t kTrainCorpusSeed = 0x7EA1C0DEULL;
constexpr std::size_t kPeriod = 2048;
constexpr std::size_t kShortTrace = 16 * kPeriod;   ///< monitor/probe/overload programs
constexpr std::size_t kLongTrace = 128 * kPeriod;   ///< scan's long-horizon programs
constexpr std::size_t kProbeRequests = 4096;

Request make_request(const trace::FeatureConfig& fc, std::vector<std::vector<double>> windows,
                     bool malware) {
  Request r;
  r.wire.view = static_cast<std::uint8_t>(fc.view);
  r.wire.period = static_cast<std::uint32_t>(fc.period);
  r.wire.width = windows.front().size();
  r.wire.windows = windows;
  r.features.put(fc, std::move(windows));
  r.malware = malware;
  return r;
}

/// Programs from the seeded corpus, traced to `trace_length` and shuffled
/// so benign and malware requests interleave.
std::vector<Request> program_requests(const trace::FeatureConfig& fc, std::size_t n_malware,
                                      std::size_t n_benign, std::size_t trace_length,
                                      std::uint64_t seed) {
  trace::CorpusConfig corpus;
  corpus.n_malware = n_malware;
  corpus.n_benign = n_benign;
  corpus.master_seed = seed;
  const trace::TraceCollector collector(trace_length);
  std::vector<Request> requests;
  for (const trace::Program& program : trace::ProgramFactory::make_corpus(corpus)) {
    requests.push_back(make_request(
        fc, trace::extract_windows(collector.collect(program), fc.view, fc.period),
        program.malware()));
  }
  rng::Xoshiro256ss gen(seed);
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[gen.below(i)]);
  }
  return requests;
}

/// Probe requests: a seeded 1-4 window slice of a program, the shape of a
/// black-box adversary's decision query.
std::vector<Request> probe_requests(const trace::FeatureConfig& fc,
                                    const std::vector<Request>& programs, std::uint64_t seed) {
  rng::Xoshiro256ss gen(seed ^ 0x9B0BEULL);
  std::vector<Request> requests;
  requests.reserve(kProbeRequests);
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    const Request& program = programs[i % programs.size()];
    const std::size_t rows = 1 + gen.below(4);
    const std::size_t first = gen.below(program.rows() - rows + 1);
    const auto begin = program.wire.windows.begin() + static_cast<std::ptrdiff_t>(first);
    requests.push_back(make_request(
        fc, std::vector<std::vector<double>>(begin, begin + static_cast<std::ptrdiff_t>(rows)),
        program.malware));
  }
  return requests;
}

}  // namespace

std::unique_ptr<Stack> build_stack(std::string_view workload, std::uint64_t seed,
                                   const std::string& uds_path) {
  auto stack = std::make_unique<Stack>();
  stack->features = trace::FeatureConfig{trace::FeatureView::kInsnCategory, kPeriod};

  trace::DatasetConfig train;
  train.corpus.n_malware = 150;
  train.corpus.n_benign = 30;
  train.corpus.master_seed = kTrainCorpusSeed;
  train.trace_length = kShortTrace;
  train.periods = {kPeriod};
  const trace::Dataset dataset = trace::Dataset::build(train);
  stack->detector = std::make_unique<hmd::StochasticHmd>(hmd::make_stochastic(
      dataset, dataset.folds(0).victim_training, stack->features, kErrorRate));

  if (workload == "scan") {
    stack->requests = program_requests(stack->features, 53, 11, kLongTrace, seed);
  } else {
    stack->requests = program_requests(stack->features, 160, 32, kShortTrace, seed);
    if (workload == "probe") {
      stack->requests = probe_requests(stack->features, stack->requests, seed);
    }
  }

  serve::ServeConfig config;
  config.num_workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  config.seed = kServiceSeed;
  stack->service = std::make_unique<serve::ScoringService>(operating_epoch(*stack), config);
  net::NetServerConfig net_config;
  net_config.allow_raw_scores = false;  // untrusted endpoints get verdicts only
  stack->server = std::make_unique<net::NetServer>(*stack->service, net_config);
  stack->uds = stack->server->add_listener(util::parse_endpoint("unix:" + uds_path),
                                           /*trusted=*/true);
  stack->tcp = stack->server->add_listener(util::parse_endpoint("127.0.0.1:0"),
                                           /*trusted=*/false);
  stack->server->start();
  return stack;
}

serve::DetectorEpoch operating_epoch(const Stack& stack) {
  return serve::make_epoch(*stack.detector);
}

double Samples::quantile(double q) {
  if (values_.empty()) return 0.0;
  if (sorted_size_ != values_.size()) {
    std::sort(values_.begin(), values_.end());
    sorted_size_ = values_.size();
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

namespace {

double cpu_us(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

}  // namespace

double process_cpu_us() { return cpu_us(RUSAGE_SELF); }
double thread_cpu_us() { return cpu_us(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace shmd::bench
