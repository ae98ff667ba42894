// google-benchmark microbenchmarks: raw host-side cost of the simulation
// itself (not the modeled i7-5557U numbers — those come from
// sys::LatencyModel). Useful for keeping the fault-injection hot path
// fast: FaultyContext must stay cheap enough to sweep er x repeats x folds
// in the figure benches.
#include <benchmark/benchmark.h>

#include "faultsim/fault_injector.hpp"
#include "nn/arithmetic.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/network.hpp"
#include "rng/lgm_prng.hpp"
#include "rng/trng_sim.hpp"
#include "rng/xoshiro256ss.hpp"
#include "trace/features.hpp"
#include "trace/program.hpp"

namespace {

using namespace shmd;

nn::Network make_net() {
  const std::vector<std::size_t> topo{16, 32, 16, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

void BM_InferenceExact(benchmark::State& state) {
  const nn::Network net = make_net();
  nn::ExactContext ctx;
  const std::vector<double> x(16, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, ctx));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_InferenceExact);

void BM_InferenceFaulty(benchmark::State& state) {
  const nn::Network net = make_net();
  faultsim::FaultInjector inj(static_cast<double>(state.range(0)) / 100.0,
                              faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  const std::vector<double> x(16, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, ctx));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_InferenceFaulty)->Arg(0)->Arg(10)->Arg(50)->Arg(100);

void BM_InferenceNoisePrng(benchmark::State& state) {
  const nn::Network net = make_net();
  rng::LgmPrng prng;
  nn::NoiseContext ctx(prng, 0.02);
  const std::vector<double> x(16, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, ctx));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_InferenceNoisePrng);

void BM_InferenceFaultyScratch(benchmark::State& state) {
  // The allocation-free hot path: same faulty inference as
  // BM_InferenceFaulty, but activations live in a reused ForwardScratch.
  const nn::Network net = make_net();
  faultsim::FaultInjector inj(static_cast<double>(state.range(0)) / 100.0,
                              faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  nn::ForwardScratch scratch;
  const std::vector<double> x(16, 0.3);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x, ctx, scratch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_InferenceFaultyScratch)->Arg(0)->Arg(10)->Arg(50)->Arg(100);

void BM_ForwardBatchExact(benchmark::State& state) {
  // The GEMM-shaped tile forward vs. row-at-a-time: Arg is the tile
  // height (windows per call). At rows=1 this measures the batched path's
  // overhead over plain forward; at rows=16 the blocked exact kernel's
  // weight-reuse payoff.
  const nn::Network net = make_net();
  nn::ExactContext ctx;
  nn::ForwardScratch scratch;
  const auto rows = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256ss gen(3);
  std::vector<double> tile(rows * net.input_dim());
  for (double& v : tile) v = gen.uniform(-1.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward_batch(tile, rows, ctx, scratch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_ForwardBatchExact)->Arg(1)->Arg(4)->Arg(16);

void BM_ForwardBatchFaulty(benchmark::State& state) {
  // Faulty tile forward at the paper's er=0.10 operating point: the fault
  // stream is live, so the kernel stays row-wise — the win here is
  // amortized dispatch and cache-warm weights, not reblocking.
  const nn::Network net = make_net();
  faultsim::FaultInjector inj(0.10, faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  nn::ForwardScratch scratch;
  const auto rows = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256ss gen(3);
  std::vector<double> tile(rows * net.input_dim());
  for (double& v : tile) v = gen.uniform(-1.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward_batch(tile, rows, ctx, scratch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows) *
                          static_cast<std::int64_t>(net.mac_count()));
}
BENCHMARK(BM_ForwardBatchFaulty)->Arg(1)->Arg(4)->Arg(16);

// ------------------------------------------------------- raw dot() kernels
//
// Isolate the span API from network plumbing: one 1024-wide dot product per
// iteration. BM_DotFaultyScalar is the pre-span baseline (per-MAC mul()
// through the base-class fallback); BM_DotFaultySkipAhead is the shipped
// FaultyContext kernel (geometric skip-ahead below kSkipAheadMaxRate, dense
// per-product draws above). Args are the error rate in permille.

/// Pre-span reference: routes every product through mul()/corrupt_product,
/// inheriting the base-class dot() fallback.
class ScalarFaultyContext final : public nn::ArithmeticContext {
 public:
  explicit ScalarFaultyContext(faultsim::FaultInjector& injector) : injector_(&injector) {}
  [[nodiscard]] double mul(double a, double b) override {
    count_mac();
    return injector_->corrupt_product(a * b);
  }
  [[nodiscard]] const char* name() const noexcept override { return "scalar-faulty"; }

 private:
  faultsim::FaultInjector* injector_;
};

constexpr std::size_t kDotLen = 1024;

std::vector<double> dot_operand(std::uint64_t seed) {
  rng::Xoshiro256ss gen(seed);
  std::vector<double> v(kDotLen);
  for (double& x : v) x = gen.uniform(-1.0, 1.0);
  return v;
}

void BM_DotExact(benchmark::State& state) {
  const std::vector<double> w = dot_operand(1);
  const std::vector<double> x = dot_operand(2);
  nn::ExactContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(ctx.dot(w.data(), x.data(), kDotLen));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDotLen));
}
BENCHMARK(BM_DotExact);

void BM_DotFaultySkipAhead(benchmark::State& state) {
  const std::vector<double> w = dot_operand(1);
  const std::vector<double> x = dot_operand(2);
  faultsim::FaultInjector inj(static_cast<double>(state.range(0)) / 1000.0,
                              faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.dot(w.data(), x.data(), kDotLen));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDotLen));
}
BENCHMARK(BM_DotFaultySkipAhead)->Arg(0)->Arg(10)->Arg(50)->Arg(100)->Arg(500);

void BM_DotFaultyScalar(benchmark::State& state) {
  const std::vector<double> w = dot_operand(1);
  const std::vector<double> x = dot_operand(2);
  faultsim::FaultInjector inj(static_cast<double>(state.range(0)) / 1000.0,
                              faultsim::BitFaultDistribution::measured());
  ScalarFaultyContext ctx(inj);
  for (auto _ : state) benchmark::DoNotOptimize(ctx.dot(w.data(), x.data(), kDotLen));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDotLen));
}
BENCHMARK(BM_DotFaultyScalar)->Arg(0)->Arg(10)->Arg(50)->Arg(100)->Arg(500);

// --------------------------------------------------- raw kernel tables
//
// The dispatched tables themselves, no ArithmeticContext accounting in
// the loop: BM_DotPortable vs BM_DotAvx2 is the honest SIMD speedup
// (both obey the same lane-blocked contract, so this is reblocking-free
// apples-to-apples), and BM_GemmKernel* shows the 4-row weight-reuse
// payoff on a model-shaped (rows x 1024) x (1024 -> 32) tile.

void bench_kernel_dot(benchmark::State& state, const nn::kernels::KernelTable* kt) {
  if (kt == nullptr) {
    state.SkipWithError("kernel table not runnable on this host");
    return;
  }
  const std::vector<double> w = dot_operand(1);
  const std::vector<double> x = dot_operand(2);
  for (auto _ : state) benchmark::DoNotOptimize(kt->dot(w.data(), x.data(), kDotLen));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDotLen));
}

void BM_DotPortable(benchmark::State& state) {
  bench_kernel_dot(state, &nn::kernels::portable_table());
}
BENCHMARK(BM_DotPortable);

void BM_DotAvx2(benchmark::State& state) {
  bench_kernel_dot(state, nn::kernels::avx2_if_supported());
}
BENCHMARK(BM_DotAvx2);

void bench_kernel_gemm(benchmark::State& state, const nn::kernels::KernelTable* kt) {
  if (kt == nullptr) {
    state.SkipWithError("kernel table not runnable on this host");
    return;
  }
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kIn = kDotLen;
  constexpr std::size_t kOut = 32;
  rng::Xoshiro256ss gen(9);
  std::vector<double> w(kOut * kIn), bias(kOut), x(rows * kIn), y(rows * kOut);
  for (double& v : w) v = gen.uniform(-1.0, 1.0);
  for (double& v : bias) v = gen.uniform(-1.0, 1.0);
  for (double& v : x) v = gen.uniform(-1.0, 1.0);
  for (auto _ : state) {
    kt->gemm(w.data(), bias.data(), x.data(), rows, kIn, kOut, y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * kIn * kOut));
}

void BM_GemmKernelPortable(benchmark::State& state) {
  bench_kernel_gemm(state, &nn::kernels::portable_table());
}
BENCHMARK(BM_GemmKernelPortable)->Arg(1)->Arg(16);

void BM_GemmKernelAvx2(benchmark::State& state) {
  bench_kernel_gemm(state, nn::kernels::avx2_if_supported());
}
BENCHMARK(BM_GemmKernelAvx2)->Arg(1)->Arg(16);

void BM_CorruptProduct(benchmark::State& state) {
  faultsim::FaultInjector inj(1.0, faultsim::BitFaultDistribution::measured());
  double x = 0.372;
  for (auto _ : state) {
    x = inj.corrupt_product(0.372);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_CorruptProduct);

void BM_TraceGeneration(benchmark::State& state) {
  const trace::Program program(0, trace::Family::kWorm, 42);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(program.generate(n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGeneration)->Arg(2048)->Arg(32768);

void BM_FeatureExtraction(benchmark::State& state) {
  const trace::Program program(0, trace::Family::kBrowser, 7);
  const auto trace_data = program.generate(32768);
  const auto view = static_cast<trace::FeatureView>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::extract_windows(trace_data, view, 2048));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
