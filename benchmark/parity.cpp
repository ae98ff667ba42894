// Cross-path parity probe: one fixed batch scored on fresh services through
// every path a request can take must hash identically. Scores are a pure
// function of (service seed, admission order), so the hashes agree across
// max_batch and transport without pinning any constant.
#include <bit>
#include <stdexcept>
#include <vector>

#include "net/client.hpp"
#include "workloads.hpp"

namespace shmd::bench {

namespace {

constexpr std::size_t kParityRequests = 256;
constexpr std::size_t kParityWindow = 32;

serve::ServeConfig parity_config(std::size_t max_batch) {
  serve::ServeConfig config;
  config.num_workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  config.seed = kServiceSeed;
  config.max_batch = max_batch;
  return config;
}

void fold_scores(Fnv1a& h, const std::vector<double>& scores) {
  for (const double s : scores) h.add_u64(std::bit_cast<std::uint64_t>(s));
}

void fold_verdict(Fnv1a& h, const std::vector<bool>& decisions, bool verdict,
                  std::uint64_t epoch_id) {
  for (const bool d : decisions) h.add_u64(d ? 1 : 0);
  h.add_u64(verdict ? 1 : 0);
  h.add_u64(epoch_id);
}

struct InProcess {
  std::uint64_t scores = 0;
  std::uint64_t verdicts = 0;
};

InProcess in_process(const Stack& stack, const std::vector<const Request*>& batch,
                     std::size_t max_batch) {
  serve::ScoringService service(operating_epoch(stack), parity_config(max_batch));
  std::vector<serve::ScoreTicket> tickets(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (service.submit(batch[i]->features, tickets[i]) != serve::SubmitStatus::kAccepted) {
      for (std::size_t j = 0; j < i; ++j) tickets[j].wait();
      throw std::runtime_error("parity: in-process submit refused");
    }
  }
  Fnv1a scores;
  Fnv1a verdicts;
  for (serve::ScoreTicket& ticket : tickets) {
    ticket.wait();
    if (ticket.outcome() != serve::RequestOutcome::kScored) {
      throw std::runtime_error("parity: in-process request not scored");
    }
    fold_scores(scores, ticket.scores());
    std::vector<bool> decisions;
    for (const double s : ticket.scores()) decisions.push_back(s >= ticket.threshold());
    fold_verdict(verdicts, decisions, ticket.verdict(), ticket.epoch_id());
  }
  return InProcess{scores.value(), verdicts.value()};
}

/// The batch over one pipelined UDS connection to a fresh service, as
/// kScore frames or as kVerdict frames. A single connection admits in wire
/// order, so admission order matches the in-process run.
std::uint64_t over_uds(const Stack& stack, const std::vector<const Request*>& batch,
                       bool decision_only, const std::string& path) {
  serve::ScoringService service(operating_epoch(stack), parity_config(16));
  net::NetServer server(service);
  const util::Endpoint endpoint = server.add_listener(util::parse_endpoint("unix:" + path));
  server.start();
  std::vector<net::Reply> replies(batch.size());
  {
    net::NetClient client;
    client.set_recv_deadline(std::chrono::milliseconds(10000));
    client.connect(endpoint);
    std::vector<std::uint64_t> ids;
    std::size_t received = 0;
    while (received < batch.size()) {
      while (ids.size() < batch.size() && ids.size() - received < kParityWindow) {
        const net::ScoreRequest& wire = batch[ids.size()]->wire;
        ids.push_back(decision_only ? client.send_verdict(wire) : client.send_score(wire));
      }
      net::Reply reply = client.recv_reply();
      const auto slot = static_cast<std::size_t>(reply.request_id - ids.front());
      if (reply.request_id < ids.front() || slot >= batch.size()) {
        throw std::runtime_error("parity: reply to an unknown request id");
      }
      replies[slot] = std::move(reply);
      ++received;
    }
  }
  server.stop();
  const auto scored = static_cast<std::uint8_t>(serve::RequestOutcome::kScored);
  Fnv1a h;
  for (const net::Reply& reply : replies) {
    if (decision_only) {
      if (!reply.verdict.has_value() || reply.verdict->outcome != scored) {
        throw std::runtime_error("parity: request not scored over the wire");
      }
      fold_verdict(h, reply.verdict->decisions, reply.verdict->verdict, reply.verdict->epoch_id);
    } else {
      if (!reply.result.has_value() || reply.result->outcome != scored) {
        throw std::runtime_error("parity: request not scored over the wire");
      }
      fold_scores(h, reply.result->scores);
    }
  }
  return h.value();
}

}  // namespace

ParityHashes parity_hashes(const Stack& stack, const std::string& uds_path) {
  std::vector<const Request*> batch;
  for (std::size_t i = 0; i < kParityRequests; ++i) {
    batch.push_back(&stack.requests[i % stack.requests.size()]);
  }
  ParityHashes h;
  const InProcess unbatched = in_process(stack, batch, 1);
  const InProcess batched = in_process(stack, batch, 16);
  h.score_inproc_batch1 = unbatched.scores;
  h.score_inproc_batch16 = batched.scores;
  h.verdict_inproc = batched.verdicts;
  h.score_uds = over_uds(stack, batch, /*decision_only=*/false, uds_path);
  h.verdict_uds = over_uds(stack, batch, /*decision_only=*/true, uds_path);
  return h;
}

}  // namespace shmd::bench
