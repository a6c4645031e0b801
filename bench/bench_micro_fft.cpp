// Micro-benchmarks of the custom FFT kernels (the Section 3 claim that the
// from-scratch kernels are competitive): throughput across sizes, truncated
// and zero-padded vs full, strided vs contiguous, and the naive-DFT sanity
// anchor.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/workload.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "runtime/parallel.hpp"
#include "tensor/aligned_buffer.hpp"

namespace {

using namespace turbofno;

fft::FftPlan plan_of(std::size_t n, fft::Direction dir, std::size_t keep = 0,
                     std::size_t nonzero = 0) {
  fft::PlanDesc d;
  d.n = n;
  d.dir = dir;
  d.keep = keep;
  d.nonzero = nonzero;
  return fft::FftPlan(d);
}

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = 1 << 14;
  AlignedBuffer<c32> in(batch * n);
  AlignedBuffer<c32> out(batch * n);
  core::fill_random(in.span(), 1u);
  const auto plan = plan_of(n, fft::Direction::Forward);
  for (auto _ : state) {
    plan.execute(in.span(), out.span(), batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * batch * n * 2 * sizeof(c32));
  state.counters["signals/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(batch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FftForward)->Arg(64)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096)->UseRealTime();

void BM_FftTruncated(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t keep = n / 4;
  const std::size_t batch = 1 << 14;
  AlignedBuffer<c32> in(batch * n);
  AlignedBuffer<c32> out(batch * keep);
  core::fill_random(in.span(), 2u);
  const auto plan = plan_of(n, fft::Direction::Forward, keep);
  for (auto _ : state) {
    plan.execute(in.span(), out.span(), batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * batch * (n + keep) *
                          sizeof(c32));
}
BENCHMARK(BM_FftTruncated)->Arg(128)->Arg(256)->Arg(1024)->UseRealTime();

void BM_IfftZeroPadded(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t nonzero = n / 4;
  const std::size_t batch = 1 << 14;
  AlignedBuffer<c32> in(batch * nonzero);
  AlignedBuffer<c32> out(batch * n);
  core::fill_random(in.span(), 3u);
  const auto plan = plan_of(n, fft::Direction::Inverse, 0, nonzero);
  for (auto _ : state) {
    plan.execute(in.span(), out.span(), batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * batch * (n + nonzero) *
                          sizeof(c32));
}
BENCHMARK(BM_IfftZeroPadded)->Arg(128)->Arg(256)->Arg(1024)->UseRealTime();

void BM_FftStridedAlongHidden(benchmark::State& state) {
  // The k-loop-aligned access pattern of the fused kernel: element stride K.
  const std::size_t n = 256;
  const std::size_t k_channels = static_cast<std::size_t>(state.range(0));
  AlignedBuffer<c32> in(n * k_channels);
  AlignedBuffer<c32> out(n * k_channels);
  core::fill_random(in.span(), 4u);
  const auto plan = plan_of(n, fft::Direction::Forward);
  fft::ExecLayout layout;
  layout.in_elem_stride = static_cast<std::ptrdiff_t>(k_channels);
  layout.in_batch_stride = 1;
  layout.out_elem_stride = 1;
  layout.out_batch_stride = static_cast<std::ptrdiff_t>(n);
  for (auto _ : state) {
    plan.execute_strided(in.data(), out.data(), k_channels, layout);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftStridedAlongHidden)->Arg(8)->Arg(64)->Arg(128);

// One batch of FNO-shaped transforms (arg1 = 0: forward keeping n/2 bins,
// 1: inverse of n/2 stored bins), serial on one thread, run either one
// signal at a time through execute_one (BM_BatchPerSignal) or column-blocked
// through execute_blocked (BM_BatchBlocked), whose time includes the
// transposes into and out of its [n][8] blocks.  Same bits either way; the
// pair is the engine's A/B below the model level.  256 contiguous signals
// keep the batch L2-resident at n = 256.
struct FnoBatch {
  static constexpr std::size_t kSignals = 256;
  fft::FftPlan plan;
  std::size_t in_len;
  std::size_t out_len;
  AlignedBuffer<c32> in;
  AlignedBuffer<c32> out;
  AlignedBuffer<c32> work;

  static fft::FftPlan fno_plan(std::size_t n, bool inverse) {
    return inverse ? plan_of(n, fft::Direction::Inverse, 0, n / 2)
                   : plan_of(n, fft::Direction::Forward, n / 2);
  }

  explicit FnoBatch(const benchmark::State& state)
      : plan(fno_plan(static_cast<std::size_t>(state.range(0)), state.range(1) != 0)),
        in_len(plan.desc().nonzero_or_n()),
        out_len(plan.desc().keep_or_n()),
        in(kSignals * in_len),
        out(kSignals * out_len),
        work(plan.blocked_scratch_elems()) {
    core::fill_random(in.span(), 8u);
  }

  static void finish(benchmark::State& state) {
    state.counters["s/signal"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(kSignals),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  }
};

void BM_BatchPerSignal(benchmark::State& state) {
  FnoBatch b(state);
  for (auto _ : state) {
    for (std::size_t c = 0; c < FnoBatch::kSignals; ++c) {
      b.plan.execute_one(b.in.data() + c * b.in_len, 1, b.out.data() + c * b.out_len, 1,
                         b.work.span());
    }
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  FnoBatch::finish(state);
}
BENCHMARK(BM_BatchPerSignal)->ArgsProduct({{128, 256}, {0, 1}});

void BM_BatchBlocked(benchmark::State& state) {
  FnoBatch b(state);
  for (auto _ : state) {
    b.plan.execute_blocked(FnoBatch::kSignals, b.in.data(), fft::tile_layout(b.in_len),
                           b.out.data(), fft::tile_layout(b.out_len), b.work.span());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  FnoBatch::finish(state);
}
BENCHMARK(BM_BatchBlocked)->ArgsProduct({{128, 256}, {0, 1}});

// The 2D transform at arg0 = nx = ny.  The batch is sized to the thread
// count so FftPlan2d's per-field fused path passes its batch >=
// thread_count() gate on multi-core hosts (it parallelizes across fields
// only).  Exception by design: the DENSE 512^2 forward's 2 MiB per-field
// tile exceeds the 1 MiB L2 budget, so that row measures the two-pass
// fallback; the truncated round trip stays under the budget everywhere.
void BM_Fft2dForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t batch =
      std::max<std::size_t>(2, static_cast<std::size_t>(runtime::thread_count()));
  fft::Plan2dDesc d;
  d.nx = n;
  d.ny = n;
  d.dir = fft::Direction::Forward;
  const fft::FftPlan2d plan(d);
  AlignedBuffer<c32> in(batch * n * n);
  AlignedBuffer<c32> out(batch * n * n);
  core::fill_random(in.span(), 6u);
  for (auto _ : state) {
    plan.execute(in.span(), out.span(), batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * batch * n * n * 2 *
                          sizeof(c32));
}
BENCHMARK(BM_Fft2dForward)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

// The FNO shape: forward truncated to n/4 modes per axis, then the
// zero-padded inverse — the exact X stages the 2D pipelines run.
void BM_Fft2dTruncRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t keep = n / 4;
  const std::size_t batch =
      std::max<std::size_t>(2, static_cast<std::size_t>(runtime::thread_count()));
  fft::Plan2dDesc d;
  d.nx = n;
  d.ny = n;
  d.keep_x = keep;
  d.keep_y = keep;
  d.dir = fft::Direction::Forward;
  const fft::FftPlan2d fwd(d);
  d.dir = fft::Direction::Inverse;
  const fft::FftPlan2d inv(d);
  AlignedBuffer<c32> in(batch * n * n);
  AlignedBuffer<c32> spec(batch * keep * keep);
  AlignedBuffer<c32> back(batch * n * n);
  core::fill_random(in.span(), 7u);
  for (auto _ : state) {
    fwd.execute(in.span(), spec.span(), batch);
    inv.execute(spec.span(), back.span(), batch);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_Fft2dTruncRoundTrip)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

void BM_NaiveDftAnchor(benchmark::State& state) {
  // O(n^2) reference at a small size: shows the custom kernel's advantage.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AlignedBuffer<c32> in(n);
  AlignedBuffer<c32> out(n);
  core::fill_random(in.span(), 5u);
  for (auto _ : state) {
    fft::reference_dft(in.span(), out.span(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_NaiveDftAnchor)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
