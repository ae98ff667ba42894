#include "ladder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "nn/arithmetic.hpp"
#include "nn/kernels/kernels.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::bench {

namespace {

struct RungInfo {
  const char* name;
  const char* parent;  ///< the rung above; nullptr at the top of a ladder
};
constexpr RungInfo kRungInfo[kRungs] = {
    {"kernel", "forward_faulty"}, {"forward_exact", "serve"}, {"forward_faulty", "serve"},
    {"window_scores", nullptr},   {"featureset_put", "uds"},  {"encode", "uds"},
    {"decode", "uds"},            {"serve", "uds"},           {"uds", nullptr},
    {"tcp", nullptr},
};

std::size_t at(Rung rung) { return static_cast<std::size_t>(rung); }

bool scored(std::uint8_t outcome) {
  return outcome == static_cast<std::uint8_t>(serve::RequestOutcome::kScored);
}

}  // namespace

Ladder::Ladder(Stack& stack, std::size_t max_replays)
    : stack_(stack), max_replays_(max_replays) {
  spans_.reserve(max_replays * kRungs);
  replays_.reserve(max_replays);
  mailbox_.reserve(kMailbox);
  lane_ = std::make_unique<Lane>(*this);
  thread_ = std::thread([this] { loop(); });
}

Ladder::~Ladder() { stop(); }

void Ladder::offer(std::size_t index, std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || mailbox_.size() >= kMailbox) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    mailbox_.emplace_back(index, id);
  }
  cv_.notify_one();
}

void Ladder::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Ladder::loop() {
  for (;;) {
    std::pair<std::size_t, std::uint64_t> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !mailbox_.empty(); });
      if (mailbox_.empty()) return;  // stopping, and every offered replay is done
      item = mailbox_.front();
      mailbox_.erase(mailbox_.begin());
    }
    lane_->replay(item.first, item.second);
  }
}

void Ladder::keep(const Replay& replay, const std::vector<Span>& spans) {
  const std::lock_guard<std::mutex> lock(kept_mu_);
  if (replays_.size() >= max_replays_) return;
  replays_.push_back(replay);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

// -- Lane -----------------------------------------------------------------------

Ladder::Lane::Lane(Ladder& ladder)
    : ladder_(ladder),
      detector_(ladder.stack_.detector->network(), ladder.stack_.features, kErrorRate),
      injector_(kErrorRate, faultsim::BitFaultDistribution::measured()) {
  spans_.reserve(kRungs);
  ticket_.set_completion_hook(&Lane::on_serve_complete, this);
  const std::chrono::milliseconds deadline(10000);
  uds_.set_recv_deadline(deadline);
  tcp_.set_recv_deadline(deadline);
  uds_.connect(ladder.stack_.uds);
  tcp_.connect(ladder.stack_.tcp);
}

void Ladder::Lane::on_serve_complete(void* arg) noexcept {
  auto* self = static_cast<Lane*>(arg);
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - self->ladder_.origin_)
                              .count();
  self->serve_done_ns_.store(std::max<std::int64_t>(ns, 1), std::memory_order_release);
}

void Ladder::Lane::replay(std::size_t index, std::uint64_t id) {
  Replay out;
  spans_.clear();
  try {
    run_rungs(index, id, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shmd_bench: ladder replay %llu failed: %s\n",
                 static_cast<unsigned long long>(id), e.what());
    ladder_.failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ladder_.keep(out, spans_);
}

void Ladder::Lane::record(std::uint64_t id, Rung rung, Clock::time_point begin,
                          Clock::time_point end, Replay& out) {
  const auto since = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - ladder_.origin_).count();
  };
  spans_.push_back(Span{id, rung, since(begin), since(end) - since(begin)});
  out.us[at(rung)] = micros_between(begin, end);
}

void Ladder::Lane::run_rungs(std::size_t index, std::uint64_t id, Replay& out) {
  const Stack& stack = ladder_.stack_;
  const Request& request = stack.requests[index];
  serve::ScoringService& service = *stack.service;
  const std::shared_ptr<const serve::DetectorEpoch> epoch = service.current_epoch();
  const nn::Network& net = epoch->network;
  const std::vector<std::vector<double>>& windows = request.features.windows(stack.features);
  const std::size_t rows = windows.size();
  tile_.clear();
  for (const std::vector<double>& window : windows) {
    tile_.insert(tile_.end(), window.begin(), window.end());
  }
  std::size_t widest = 0;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    widest = std::max(widest, net.layer(l).in_dim);
  }
  if (hidden_.size() < rows * widest) hidden_.resize(rows * widest, 0.5);
  out.macs = static_cast<double>(rows * net.mac_count());

  // Kernel: the lane-blocked block kernel over every MAC of the request
  // (hidden layers read a stand-in activation tile of the right width).
  const nn::kernels::KernelTable& table = nn::kernels::active();
  Clock::time_point t0 = Clock::now();
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const nn::Layer& layer = net.layer(l);
    const double* x = l == 0 ? tile_.data() : hidden_.data();
    const std::size_t blocks = layer.in_dim / nn::kernels::kLanes;
    for (std::size_t r = 0; r < rows; ++r) {
      const double* xr = x + r * layer.in_dim;
      for (std::size_t o = 0; o < layer.out_dim; ++o) {
        const double* w = layer.weights.data() + o * layer.in_dim;
        nn::kernels::Acc4 acc{};
        table.accumulate_blocks(w, xr, blocks, acc);
        nn::kernels::accumulate_scalar(w, xr, blocks * nn::kernels::kLanes, layer.in_dim, acc);
        sink_ += nn::kernels::reduce(acc);
      }
    }
  }
  record(id, Rung::kKernel, t0, Clock::now(), out);

  nn::ExactContext exact;
  t0 = Clock::now();
  sink_ += net.forward_batch(tile_, rows, exact, scratch_)[0];
  record(id, Rung::kForwardExact, t0, Clock::now(), out);

  // Faulty forward, with the injector seeded exactly as the service seeds
  // the request with admission sequence `id`.
  injector_.set_error_rate(epoch->error_rate);
  injector_.set_distribution(epoch->distribution);
  injector_.generator() = rng::Xoshiro256ss(rng::stream_seed(kServiceSeed, id));
  injector_.reset_stats();
  nn::FaultyContext faulty(injector_);
  t0 = Clock::now();
  sink_ += net.forward_batch(tile_, rows, faulty, scratch_)[0];
  record(id, Rung::kForwardFaulty, t0, Clock::now(), out);
  out.faults = static_cast<double>(injector_.stats().faults);

  t0 = Clock::now();
  sink_ += detector_.window_scores(request.features).front();
  record(id, Rung::kWindowScores, t0, Clock::now(), out);

  t0 = Clock::now();
  {
    trace::FeatureSet features;
    features.put(stack.features, request.wire.windows);
    sink_ += static_cast<double>(features.windows(stack.features).size());
  }
  record(id, Rung::kFeatureSetPut, t0, Clock::now(), out);

  frame_bytes_.clear();
  t0 = Clock::now();
  {
    net::Frame frame;
    frame.type = net::FrameType::kScore;
    frame.request_id = id;
    frame.payload = net::encode_score_request(request.wire);
    net::encode_frame(frame, frame_bytes_);
  }
  record(id, Rung::kEncode, t0, Clock::now(), out);

  t0 = Clock::now();
  const bool decoded = net::decode_score_request(
                           std::span<const std::uint8_t>(frame_bytes_).subspan(net::kHeaderSize))
                           .has_value();
  record(id, Rung::kDecode, t0, Clock::now(), out);
  if (!decoded) ladder_.failed_.fetch_add(1, std::memory_order_relaxed);

  // In-process service: try_submit -> completion-hook timestamp, with the
  // predictor's wait estimate read just before submitting.
  const auto predicted_ns = static_cast<double>(
      service.wait_predictor().predicted_wait_ns(service.queue_depth(), service.num_workers()));
  serve_done_ns_.store(0, std::memory_order_relaxed);
  t0 = Clock::now();
  const serve::SubmitStatus status = service.try_submit(request.features, ticket_);
  ticket_.wait();
  std::int64_t done_ns = 0;
  while ((done_ns = serve_done_ns_.load(std::memory_order_acquire)) == 0) {
    std::this_thread::yield();  // the hook runs just after done() is published
  }
  record(id, Rung::kServe, t0, ladder_.origin_ + std::chrono::nanoseconds(done_ns), out);
  if (status != serve::SubmitStatus::kAccepted ||
      ticket_.outcome() != serve::RequestOutcome::kScored) {
    ladder_.failed_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto ewma_ns = static_cast<double>(service.wait_predictor().ewma_service_ns());
  const double wait_ns = std::max(0.0, out.us[at(Rung::kServe)] * 1e3 - ewma_ns);
  out.queue_wait_us = wait_ns / 1e3;
  if (std::max(wait_ns, ewma_ns) > 0.0) {
    out.predict_err = std::abs(predicted_ns - wait_ns) / std::max(wait_ns, ewma_ns);
  }

  t0 = Clock::now();
  ladder_.frames_sent_.fetch_add(1, std::memory_order_relaxed);
  const net::Reply uds_reply = uds_.score(request.wire);
  ladder_.replies_.fetch_add(1, std::memory_order_relaxed);
  record(id, Rung::kUds, t0, Clock::now(), out);
  if (!uds_reply.result.has_value() || !scored(uds_reply.result->outcome)) {
    ladder_.failed_.fetch_add(1, std::memory_order_relaxed);
  }

  t0 = Clock::now();
  (void)tcp_.send_verdict(request.wire);
  ladder_.frames_sent_.fetch_add(1, std::memory_order_relaxed);
  const net::Reply tcp_reply = tcp_.recv_reply();
  ladder_.replies_.fetch_add(1, std::memory_order_relaxed);
  record(id, Rung::kTcp, t0, Clock::now(), out);
  if (!tcp_reply.verdict.has_value() || !scored(tcp_reply.verdict->outcome)) {
    ladder_.failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

Metrics Ladder::per_layer(Metrics& detail) {
  const std::size_t n = replays_.size();
  Samples kernel(n), gmacs(n), exact(n), faulty(n), forward_self(n), mmacs(n), faults(n),
      ns_per_fault(n), window_scores(n), put(n), encode(n), decode(n), serve(n), serve_self(n),
      queue_wait(n), predict_err(n), uds_self(n), tcp_self(n);
  for (const Replay& r : replays_) {
    const auto us = [&r](Rung rung) { return r.us[at(rung)]; };
    kernel.add(us(Rung::kKernel));
    gmacs.add(r.macs / (us(Rung::kKernel) * 1e3));
    exact.add(us(Rung::kForwardExact));
    faulty.add(us(Rung::kForwardFaulty));
    forward_self.add(us(Rung::kForwardFaulty) - us(Rung::kKernel));
    mmacs.add(r.macs / us(Rung::kForwardFaulty));
    faults.add(r.faults);
    if (r.faults > 0.0) {
      ns_per_fault.add((us(Rung::kForwardFaulty) - us(Rung::kForwardExact)) * 1e3 / r.faults);
    }
    window_scores.add(us(Rung::kWindowScores));
    put.add(us(Rung::kFeatureSetPut));
    encode.add(us(Rung::kEncode));
    decode.add(us(Rung::kDecode));
    serve.add(us(Rung::kServe));
    serve_self.add(us(Rung::kServe) - us(Rung::kForwardFaulty));
    queue_wait.add(r.queue_wait_us);
    if (r.predict_err >= 0.0) predict_err.add(r.predict_err);
    uds_self.add(us(Rung::kUds) - us(Rung::kServe));
    tcp_self.add(us(Rung::kTcp) - us(Rung::kServe));
  }
  Metrics m;
  const auto put_metric = [&m](const char* name, Samples& s, const char* unit, double q = 0.5) {
    m[name] = Metric{s.quantile(q), unit, s.size()};
  };
  put_metric("kernels.blocks_gmacs", gmacs, "GMAC/s");
  put_metric("nn.forward_exact_us", exact, "us");
  put_metric("nn.forward_faulty_us", faulty, "us");
  put_metric("nn.faulty_mmacs", mmacs, "MMAC/s");
  put_metric("faultsim.faults_per_req", faults, "count");
  put_metric("faultsim.ns_per_fault", ns_per_fault, "ns");
  put_metric("hmd.window_scores_us", window_scores, "us");
  put_metric("trace.featureset_put_us", put, "us");
  put_metric("net.encode_us", encode, "us");
  put_metric("net.decode_us", decode, "us");
  put_metric("serve.latency_us", serve, "us");
  put_metric("serve.self_us", serve_self, "us");
  put_metric("serve.queue_wait_p99_us", queue_wait, "us", 0.99);
  put_metric("admit.predict_err_p50", predict_err, "fraction");
  put_metric("net.uds_self_us", uds_self, "us");
  put_metric("net.tcp_self_us", tcp_self, "us");
  // The UDS ladder telescopes: kernel + (forward - kernel) + (serve -
  // forward) + (uds - serve) = uds, so the self times' medians should sum
  // to about the end-to-end UDS round trip.
  detail["trace.ladder_sum_us"] =
      Metric{kernel.median() + forward_self.median() + m["serve.self_us"].value +
                 m["net.uds_self_us"].value,
             "us", n};
  return m;
}

void Ladder::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("shmd_bench: cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const RungInfo& info = kRungInfo[at(s.rung)];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"ladder\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace_id\": %llu, "
                 "\"parent\": %s%s%s}}%s\n",
                 info.name, static_cast<unsigned long long>(s.trace_id),
                 static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.trace_id), info.parent ? "\"" : "",
                 info.parent ? info.parent : "null", info.parent ? "\"" : "",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

}  // namespace shmd::bench
