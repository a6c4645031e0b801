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

// 2D schedules A/B: arg0 = nx = ny, arg1 selects the schedule:
//   0  legacy per-column strided X stage (TURBOFNO_FFT2D_TRANSPOSE=0)
//   1  transpose-based X stage, unfused middle (TURBOFNO_FUSED_MID=0)
//   2  transpose-based X stage + fused middle tiles (the default)
// All three are bitwise-identical; the knobs are forced per run.  The
// batch is sized to the thread count so sched=2 actually passes
// FftPlan2d's batch >= thread_count() gate on multi-core hosts (the fused
// middle parallelizes across fields only).  Exception by design: the
// DENSE 512^2 forward's 2 MiB per-field tile exceeds the 1 MiB L2 budget,
// so its sched=2 arm measures the default path's intended fallback (equal
// to sched=1); the truncated round trip stays under the budget everywhere.
struct Sched2dGuard {
  bool prev_tr = fft::fft2d_transpose_enabled();
  bool prev_mid = fft::fused_mid_enabled();
  explicit Sched2dGuard(int sched) {
    fft::set_fft2d_transpose(sched != 0);
    fft::set_fused_mid(sched == 2);
  }
  ~Sched2dGuard() {
    fft::set_fft2d_transpose(prev_tr);
    fft::set_fused_mid(prev_mid);
  }
};

const char* sched2d_label(int sched) {
  return sched == 0 ? "per-column" : (sched == 1 ? "transposed" : "fused-mid");
}

void BM_Fft2dForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int sched = static_cast<int>(state.range(1));
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
  const Sched2dGuard guard(sched);
  for (auto _ : state) {
    plan.execute(in.span(), out.span(), batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * batch * n * n * 2 *
                          sizeof(c32));
  state.SetLabel(sched2d_label(sched));
}
BENCHMARK(BM_Fft2dForward)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->UseRealTime();

// The FNO shape: forward truncated to n/4 modes per axis, then the
// zero-padded inverse — the exact X stages the 2D pipelines run.
void BM_Fft2dTruncRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int sched = static_cast<int>(state.range(1));
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
  const Sched2dGuard guard(sched);
  for (auto _ : state) {
    fwd.execute(in.span(), spec.span(), batch);
    inv.execute(spec.span(), back.span(), batch);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetLabel(sched2d_label(sched));
}
BENCHMARK(BM_Fft2dTruncRoundTrip)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->UseRealTime();

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
