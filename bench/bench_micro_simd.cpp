// Scalar vs SIMD backend shoot-out on the CGEMM and FFT micro-kernels.
//
// Unlike the figure benches (which compare pipeline variants), this bench
// pits the scalar backend against the compiled-in SIMD backend on the exact
// register/butterfly kernels the pipelines run, at the paper's Table-1
// shapes, so the explicit-SIMD layer's speedup is a printed,
// regression-checkable number:
//
//   cgemm-micro     one k-tile of the FusedTiles accumulator tile (32x32x8):
//                   the interleaved scalar 4x4 kernel vs the split-complex
//                   vector kernel on the backend's register block
//                   (gemm::accumulate_tile_split, the fused k-loop's step).
//   cgemm-full      the whole blocked CGEMM at the fused FNO shape.
//   cgemm-fig19-*,  cgemm_batched at the models' residual GEMM shapes (see
//   cgemm-fno1d-*   bench_cgemm_batched).
//   fft-radix4-q    one Stockham radix-4 pass at s = 64 (the batched FFT's
//                   vector sweep).
//
// It also measures the one-core FMA peak of every compiled SIMD backend
// (24 zmm / 12 ymm independent FMA chains, best of 3; see fma_peak)
// and reports each cgemm arm's SIMD GFLOP/s as a fraction of the active
// backend's peak: how close the CGEMM kernel runs to what the core can do.
//
// The scalar side comes from simd_scalar_ref.cpp, which is compiled with
// AVX/FMA codegen disabled so it matches what a TURBOFNO_SIMD=scalar build
// actually executes (x86-64 baseline auto-vectorization), not "the scalar
// source blessed with this binary's -mavx2 flags".
//
// With --json <path>, emits {active_backend, fma_peak: [{backend,
// gflops}], kernels: [{name, scalar_seconds, simd_seconds, scalar_gflops,
// simd_gflops, speedup[, simd_peak_fraction]}]} for the perf trajectory.
// simd_peak_fraction appears on the cgemm arms of a SIMD build.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/workload.hpp"
#include "fft/kernels.hpp"
#include "fft/twiddle.hpp"
#include "gemm/batched.hpp"
#include "gemm/cgemm.hpp"
#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"
#include "simd_scalar_ref.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/simd.hpp"
#include "trace/counters.hpp"

namespace {

using namespace turbofno;
namespace scalar_ref = turbofno::bench::scalar_ref;

using Cfg = gemm::FusedTiles;  // paper Table 1: 32x32x8

struct KernelResult {
  std::string name;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  double flops = 0.0;  // per timed pass
  bool fma_bound = false;  // reported against the FMA peak

  [[nodiscard]] double speedup() const { return scalar_seconds / simd_seconds; }
  [[nodiscard]] double gflops(double seconds) const { return flops / seconds * 1e-9; }
};

// ------------------------------------------------------------- FMA peak

struct PeakResult {
  const char* backend;
  double gflops;
};

/// One core's single-precision FMA throughput on backend B's register
/// width: independent accumulator registers well past FMA latency x ports
/// on current x86 cores (24 zmm chains on avx512, 12 ymm on avx2, whose 16
/// registers must also hold the operands), so the loop is bound by FMA
/// throughput alone.  Every chain starts from its own value: chains that
/// start equal and take the same updates are one value to the compiler,
/// which then runs fewer FMAs than the FLOP count assumes.  Best of 3.
template <class B>
PeakResult fma_peak() {
  using V = typename B::cvec;
  constexpr std::size_t kVecs = B::lanes >= 16 ? 12 : 6;  // two chains (re, im) each
  constexpr std::size_t kIters = std::size_t{1} << 22;
  const V b = B::broadcast_split(0.5f, 0.25f);
  std::vector<float> sink_re(B::lanes), sink_im(B::lanes);
  float total = 0.0f;
  const double seconds = runtime::time_best_of(3, [&] {
    V acc[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[v] = B::broadcast_split(1.0f + static_cast<float>(v), -0.5f - static_cast<float>(v));
    }
    // acc += 1e-7 * b: 2 FMAs per vector per step; stays small and finite.
    for (std::size_t it = 0; it < kIters; ++it) {
      for (std::size_t v = 0; v < kVecs; ++v) acc[v] = B::rmadd(acc[v], 1e-7f, b);
    }
    for (std::size_t v = 0; v < kVecs; ++v) {
      B::store_split(sink_re.data(), sink_im.data(), acc[v]);
      total += sink_re[0] + sink_im[0];
    }
  });
  if (total != total) std::printf("(fma peak: NaN sink)\n");  // keeps the chains live
  const double flops = 2.0 * 2.0 * B::lanes * kVecs * kIters;
  return {B::name(), flops / seconds * 1e-9};
}

std::vector<PeakResult> fma_peaks() {
  std::vector<PeakResult> peaks;
#if TURBOFNO_SIMD_HAVE_AVX2
  peaks.push_back(fma_peak<simd::Avx2Backend>());
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
  peaks.push_back(fma_peak<simd::Avx512Backend>());
#endif
  return peaks;
}

/// The active backend's peak, or 0 in a scalar-only build.
double active_peak(const std::vector<PeakResult>& peaks) {
  for (const auto& p : peaks) {
    if (std::string(p.backend) == simd::active_backend()) return p.gflops;
  }
  return 0.0;
}

// ------------------------------------------------------- cgemm micro-kernel

KernelResult bench_cgemm_micro(std::size_t reps) {
  // Packed panels for one K-block, repeated many times so the working set
  // stays L1-resident and the measurement isolates the register kernel.
  AlignedBuffer<c32> A(Cfg::Mtb * Cfg::Ktb);
  AlignedBuffer<c32> Bm(Cfg::Ktb * Cfg::Ntb);
  core::fill_random(A.span(), 11u);
  core::fill_random(Bm.span(), 12u);

  AlignedBuffer<c32> Apack(Cfg::Mtb * Cfg::Ktb);
  AlignedBuffer<c32> Bpack(Cfg::Ntb * Cfg::Ktb);
  gemm::pack_a_tile<Cfg::Mtb, Cfg::Ktb>(Apack.data(), A.data(), Cfg::Ktb, 0, 0, Cfg::Mtb,
                                        Cfg::Ktb);
  gemm::pack_b_tile<Cfg::Ntb, Cfg::Ktb>(Bpack.data(), Bm.data(), Cfg::Ntb, 0, 0, Cfg::Ktb,
                                        Cfg::Ntb);

  AlignedBuffer<float> ApackS(2 * Cfg::Mtb * Cfg::Ktb);
  AlignedBuffer<float> BpackS(2 * Cfg::Ntb * Cfg::Ktb);
  gemm::pack_a_tile_split<gemm::RegBlock<simd::Active, false>::rows>(
      ApackS.data(), A.data(), Cfg::Ktb, 0, 0, Cfg::Mtb, Cfg::Ktb);
  gemm::pack_b_tile_split<Cfg::Ntb>(BpackS.data(), Bm.data(), Cfg::Ntb, 0, 0, Cfg::Ktb, Cfg::Ntb);

  AlignedBuffer<c32> acc(Cfg::Mtb * Cfg::Ntb);
  AlignedBuffer<float> accS(2 * Cfg::Mtb * Cfg::Ntb);

  constexpr std::size_t kInner = 2048;  // tile passes per timed rep
  KernelResult r;
  r.name = "cgemm-micro-32x32x8";
  r.fma_bound = true;
  r.flops = static_cast<double>(trace::cgemm_flops(Cfg::Mtb, Cfg::Ntb, Cfg::Ktb)) * kInner;

  r.scalar_seconds = runtime::time_best_of(reps, [&] {
    for (std::size_t it = 0; it < kInner; ++it) {
      scalar_ref::micro_cgemm_pass(acc.data(), Apack.data(), Bpack.data(), Cfg::Ktb);
    }
  });
  r.simd_seconds = runtime::time_best_of(reps, [&] {
    for (std::size_t it = 0; it < kInner; ++it) {
      gemm::accumulate_tile_split<Cfg, simd::Active>(accS.data(), ApackS.data(), BpackS.data(),
                                                     Cfg::Ktb, Cfg::Mtb, Cfg::Ntb);
    }
  });
  return r;
}

// ---------------------------------------------------------------- full cgemm

KernelResult bench_cgemm_full(std::size_t reps) {
  // The fused FNO GEMM shape: M = signals * modes (tall), N = modes-tile,
  // K = hidden (paper Table 1 fused config drives N < 48 through FusedTiles).
  const std::size_t M = 4096;
  const std::size_t N = 32;
  const std::size_t K = 64;
  AlignedBuffer<c32> A(M * K);
  AlignedBuffer<c32> Bm(K * N);
  AlignedBuffer<c32> C(M * N);
  core::fill_random(A.span(), 21u);
  core::fill_random(Bm.span(), 22u);

  KernelResult r;
  r.name = "cgemm-full-4096x32x64";
  r.fma_bound = true;
  r.flops = static_cast<double>(trace::cgemm_flops(M, N, K));
  r.scalar_seconds = runtime::time_best_of(reps, [&] {
    scalar_ref::cgemm_fused_tiles(M, N, K, c32{1.0f, 0.0f}, A.data(), K, Bm.data(), N,
                                  c32{0.0f, 0.0f}, C.data(), N);
  });
  r.simd_seconds = runtime::time_best_of(reps, [&] {
    gemm::cgemm_tiled_backend<Cfg, simd::Active>(M, N, K, c32{1.0f, 0.0f}, A.data(), K, Bm.data(),
                                                 N, c32{0.0f, 0.0f}, C.data(), N);
  });
  return r;
}

// ------------------------------------------------- cgemm at the FNO shapes

/// cgemm_batched at a pointwise (residual) GEMM shape of the FNO models:
/// `batch` items of C[M x N] = A * B_i + C_i with one A shared by every
/// item.  The scalar side runs the seed's scalar GEMM per item (a real A as
/// its {re, 0} copy, which is what the scalar backend multiplies).  A real
/// A's FLOPs are counted as run: 4 per multiply-add, not a complex one's 8.
KernelResult bench_cgemm_batched(const char* name, std::size_t M, std::size_t N, std::size_t K,
                                 std::size_t batch, gemm::AOperand kind, std::size_t reps) {
  const bool real = kind == gemm::AOperand::RealPart;
  AlignedBuffer<c32> A(M * K);
  AlignedBuffer<c32> Bm(batch * K * N);
  AlignedBuffer<c32> C(batch * M * N);
  core::fill_random(A.span(), 31u);
  core::fill_random(Bm.span(), 32u);
  core::fill_random(C.span(), 33u);
  AlignedBuffer<c32> Ascalar(M * K);
  for (std::size_t i = 0; i < M * K; ++i) Ascalar[i] = real ? c32{A[i].re, 0.0f} : A[i];
  const c32 one{1.0f, 0.0f};
  const gemm::BatchedStrides strides{0, static_cast<std::ptrdiff_t>(K * N),
                                     static_cast<std::ptrdiff_t>(M * N)};

  KernelResult r;
  r.name = name;
  r.fma_bound = true;
  r.flops = static_cast<double>(trace::cgemm_flops(M, N, K)) * static_cast<double>(batch) /
            (real ? 2.0 : 1.0);
  r.scalar_seconds = runtime::time_best_of(reps, [&] {
    for (std::size_t i = 0; i < batch; ++i) {
      scalar_ref::cgemm_fused_tiles(M, N, K, one, Ascalar.data(), K, Bm.data() + i * K * N, N,
                                    one, C.data() + i * M * N, N);
    }
  });
  r.simd_seconds = runtime::time_best_of(reps, [&] {
    gemm::cgemm_batched(M, N, K, one, A.data(), K, Bm.data(), N, one, C.data(), N, batch,
                        strides, kind);
  });
  return r;
}

// ------------------------------------------------------------- fft kernels

KernelResult bench_fft_radix4_pass(std::size_t reps) {
  // One radix-4 Stockham pass with s = 64 contiguous butterflies per group
  // (the q-loop the batched FFT spends its time in at n = 256).
  const std::size_t l = 4;
  const std::size_t s = 64;
  const std::size_t n = 4 * l * s;  // 1024 elements flowing through the pass
  const fft::TwiddleTable& tw = fft::twiddles_for(4 * l);
  const std::span<const c32> w = tw.forward(4 * l);

  AlignedBuffer<c32> src(n);
  AlignedBuffer<c32> dst(n);
  core::fill_random(src.span(), 41u);

  constexpr std::size_t kInner = 4096;
  KernelResult r;
  r.name = "fft-radix4-pass-s64";
  // A radix-4 butterfly is 3 unit ops (Figure 5), 10 flops per unit op.
  r.flops = static_cast<double>(l * s) * 3.0 * 10.0 * kInner;

  r.scalar_seconds = runtime::time_best_of(reps, [&] {
    for (std::size_t it = 0; it < kInner; ++it) {
      scalar_ref::radix4_pass(src.data(), dst.data(), l, s, w);
    }
  });
  r.simd_seconds = runtime::time_best_of(reps, [&] {
    for (std::size_t it = 0; it < kInner; ++it) {
      fft::kernels::pass_radix4<simd::Active, false>(src.data(), dst.data(), l, s, w);
    }
  });
  return r;
}

void write_json(const std::string& path, const std::vector<PeakResult>& peaks,
                const std::vector<KernelResult>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_simd: cannot open --json path '%s'\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"active_backend\": \"%s\",\n  \"fma_peak\": [",
               simd::active_backend());
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    std::fprintf(f, "%s{\"backend\": \"%s\", \"gflops\": %.6g}", i == 0 ? "" : ", ",
                 peaks[i].backend, peaks[i].gflops);
  }
  std::fprintf(f, "],\n  \"kernels\": [\n");
  const double peak = active_peak(peaks);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"scalar_seconds\": %.9g, \"simd_seconds\": %.9g, "
                 "\"scalar_gflops\": %.6g, \"simd_gflops\": %.6g, \"speedup\": %.4g",
                 r.name.c_str(), r.scalar_seconds, r.simd_seconds, r.gflops(r.scalar_seconds),
                 r.gflops(r.simd_seconds), r.speedup());
    if (r.fma_bound && peak > 0.0) {
      std::fprintf(f, ", \"simd_peak_fraction\": %.4g", r.gflops(r.simd_seconds) / peak);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turbofno::bench;
  const Options opt = Options::parse(argc, argv);
  const std::size_t reps = opt.reps < 5 ? 5 : opt.reps;
  // Single worker: this bench compares kernel codegen, not thread counts.
  turbofno::runtime::set_thread_count(1);

  std::printf("== SIMD backend shoot-out (active backend: %s) ==\n\n",
              turbofno::simd::active_backend());
#if !TURBOFNO_SIMD_HAVE_AVX2
  std::printf("note: built scalar-only (TURBOFNO_SIMD=scalar or no AVX2); the\n"
              "      'simd' column below runs the scalar backend too.\n\n");
#endif

  const std::vector<PeakResult> peaks = fma_peaks();
  for (const auto& p : peaks) {
    std::printf("one-core FMA peak (%s): %.2f GFLOP/s\n", p.backend, p.gflops);
  }
  if (!peaks.empty()) std::printf("\n");
  const double peak = active_peak(peaks);

  std::vector<KernelResult> rows;
  rows.push_back(bench_cgemm_micro(reps));
  rows.push_back(bench_cgemm_full(reps));
  // The residual GEMMs of the Fig 19 model (one 2048-column X-stage slab of
  // 40 channels, complex and real-lane weights) and of fno1d (four items,
  // 128 channels x 128 points).  Best of at least 50: one call is 0.1-1 ms.
  const std::size_t gemm_reps = reps < 50 ? 50 : reps;
  rows.push_back(bench_cgemm_batched("cgemm-fig19-slab-40x2048x40", 40, 2048, 40, 1,
                                     gemm::AOperand::Complex, gemm_reps));
  rows.push_back(bench_cgemm_batched("cgemm-fig19-slab-real-40x2048x40", 40, 2048, 40, 1,
                                     gemm::AOperand::RealPart, gemm_reps));
  rows.push_back(bench_cgemm_batched("cgemm-fno1d-resid-128x128x128x4", 128, 128, 128, 4,
                                     gemm::AOperand::Complex, gemm_reps));
  rows.push_back(bench_fft_radix4_pass(reps));

  std::printf("%-34s %12s %12s %10s %10s %8s %7s\n", "kernel", "scalar(us)", "simd(us)",
              "sc GF/s", "simd GF/s", "speedup", "peak");
  for (const auto& r : rows) {
    std::printf("%-34s %12.2f %12.2f %10.2f %10.2f %7.2fx", r.name.c_str(),
                r.scalar_seconds * 1e6, r.simd_seconds * 1e6, r.gflops(r.scalar_seconds),
                r.gflops(r.simd_seconds), r.speedup());
    if (r.fma_bound && peak > 0.0) {
      std::printf(" %6.1f%%\n", 100.0 * r.gflops(r.simd_seconds) / peak);
    } else {
      std::printf(" %7s\n", "-");
    }
  }
  std::printf("\n(speedup = scalar backend / active backend wall-clock, best of %zu;\n"
              " peak = simd GF/s / the active backend's one-core FMA peak)\n",
              reps);

  if (!opt.json.empty()) write_json(opt.json, peaks, rows);
  return 0;
}
