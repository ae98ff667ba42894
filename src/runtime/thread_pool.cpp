#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace shmd::runtime {

std::size_t resolve_workers(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t n_workers) {
  n_workers = resolve_workers(n_workers);
  // A wrapped negative (size_t(-1)) or similar nonsense would otherwise die
  // deep inside vector::reserve with an unhelpful length_error.
  if (n_workers > kMaxWorkers) {
    throw std::invalid_argument("ThreadPool: implausible worker count");
  }
  threads_.reserve(n_workers);
  for (std::size_t id = 0; id < n_workers; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      const util::MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) start_cv_.wait(mu_);
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(id);
    } catch (...) {
      const util::MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const util::MutexLock lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  std::exception_ptr err;
  {
    const util::MutexLock lock(mu_);
    job_ = &fn;
    first_error_ = nullptr;
    pending_ = threads_.size();
    ++generation_;
    start_cv_.notify_all();
    while (pending_ != 0) done_cv_.wait(mu_);
    job_ = nullptr;
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace shmd::runtime
