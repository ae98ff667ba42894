// Tests for the runtime utilities — the fork/join ThreadPool and the
// shared worker-count rule — plus xoshiro jump() stream independence and
// the allocation-free steady state of the scratch forward path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_set>

#include "faultsim/fault_injector.hpp"
#include "nn/arithmetic.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "runtime/thread_pool.hpp"

// Allocation probe: global operator new replacement counting every heap
// allocation in the process. The zero-allocation test snapshots the
// counter around a steady-state forward loop. The operators stay out of
// line so GCC cannot pair an inlined malloc()/free() with the other side's
// operator and flag -Wmismatched-new-delete in optimized builds.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace shmd::runtime {
namespace {

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsJobOnEveryWorker) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(4, 0);
  pool.run([&](std::size_t w) { hits[w] += 1; });
  pool.run([&](std::size_t w) { hits[w] += 1; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPool, RejectsImplausibleWorkerCounts) {
  // A negative CLI value cast to size_t must fail with a clear error, not
  // a length_error from deep inside vector::reserve.
  EXPECT_THROW(ThreadPool(static_cast<std::size_t>(-1)), std::invalid_argument);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxWorkers + 1), std::invalid_argument);
}

TEST(ThreadPool, PropagatesWorkerExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([](std::size_t w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.run([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, RepeatedRethrowThenReuseCyclesStayConsistent) {
  // Regression guard for the rethrow path's bookkeeping: first_error_ and
  // pending_ must reset fully on every run(), including runs where
  // SEVERAL workers throw concurrently (only the first exception
  // propagates; the rest must be swallowed without corrupting the next
  // generation).
  ThreadPool pool(4);
  for (int cycle = 0; cycle < 8; ++cycle) {
    EXPECT_THROW(pool.run([](std::size_t w) {
                   if (w % 2 == 0) throw std::runtime_error("cycle boom");
                 }),
                 std::runtime_error)
        << "cycle " << cycle;
    std::atomic<int> ran{0};
    pool.run([&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4) << "cycle " << cycle;
  }
}

TEST(ResolveWorkers, ZeroMeansAllCoresAndExplicitCountsPassThrough) {
  // Shared by ThreadPool and serve::ScoringService — "0 = all cores"
  // must mean the same thing everywhere.
  EXPECT_EQ(resolve_workers(0),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_workers(1), 1u);
  EXPECT_EQ(resolve_workers(7), 7u);
}

// -------------------------------------------------------- stream discipline

TEST(WorkerStreams, JumpDerivedStreamsDoNotOverlap) {
  // Jumping a base generator w times gives worker w a private stream.
  // Over 10^5 draws per stream, the outputs must be pairwise disjoint
  // (jump() advances 2^128 steps, so any overlap is a bug).
  constexpr std::size_t kDraws = 100000;
  rng::Xoshiro256ss base(0xBA7C4ULL);
  rng::Xoshiro256ss s0 = base;
  rng::Xoshiro256ss s1 = base;
  s1.jump();
  rng::Xoshiro256ss s2 = s1;
  s2.jump();

  std::unordered_set<std::uint64_t> seen0;
  seen0.reserve(kDraws * 2);
  for (std::size_t i = 0; i < kDraws; ++i) seen0.insert(s0());
  std::size_t collisions = 0;
  std::unordered_set<std::uint64_t> seen1;
  seen1.reserve(kDraws * 2);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t x = s1();
    collisions += seen0.count(x);
    seen1.insert(x);
  }
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t x = s2();
    collisions += seen0.count(x);
    collisions += seen1.count(x);
  }
  EXPECT_EQ(collisions, 0u);
}

// ------------------------------------------------------ allocation-free path

TEST(ForwardScratch, SteadyStateForwardIsAllocationFree) {
  const std::vector<std::size_t> topo{16, 32, 16, 1};
  const nn::Network net(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
  faultsim::FaultInjector inj(0.5, faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  const std::vector<double> x(16, 0.3);
  nn::ForwardScratch scratch;
  (void)net.forward(x, ctx, scratch);  // warm-up: buffers grow here only

  double acc = 0.0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 512; ++i) acc += net.forward(x, ctx, scratch)[0];
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state forward must not touch the heap (acc=" << acc
                           << ")";
}

}  // namespace
}  // namespace shmd::runtime
