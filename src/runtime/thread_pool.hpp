// Persistent fork/join worker pool (shmd-lint's file fan-out).
//
// Deliberately minimal: one primitive — run a callable on every worker and
// wait for all of them. Scoring does not run here: serve::ScoringService
// owns its resident workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace shmd::runtime {

/// Resolve a requested worker count: 0 means "all cores"
/// (std::thread::hardware_concurrency, floored at 1). Shared by every
/// pool-owning component (ThreadPool, serve::ScoringService) so "0 = all
/// cores" means the same thing everywhere.
[[nodiscard]] std::size_t resolve_workers(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Upper bound on an explicit worker count; requests above it (usually a
  /// negative number cast to size_t) throw std::invalid_argument.
  static constexpr std::size_t kMaxWorkers = 4096;

  /// `n_workers` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Run `fn(worker_id)` on every worker (ids 0..size()-1) and block until
  /// all calls return. The first exception any worker throws is rethrown
  /// on the calling thread after the join; the pool stays usable.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> threads_;
  util::Mutex mu_;
  util::CondVar start_cv_ SHMD_CV_WAITS_ON(mu_);
  util::CondVar done_cv_ SHMD_CV_WAITS_ON(mu_);
  const std::function<void(std::size_t)>* job_ SHMD_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ SHMD_GUARDED_BY(mu_) = 0;
  std::size_t pending_ SHMD_GUARDED_BY(mu_) = 0;
  bool stop_ SHMD_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ SHMD_GUARDED_BY(mu_);
};

}  // namespace shmd::runtime
