// Scalar vs SIMD backend shoot-out on the CGEMM and FFT micro-kernels.
//
// Unlike the figure benches (which compare pipeline variants), this bench
// pits the scalar backend against the compiled-in SIMD backend on the exact
// register/butterfly kernels the pipelines run, at the paper's Table-1
// shapes, so the explicit-SIMD layer's speedup is a printed,
// regression-checkable number:
//
//   cgemm-micro     the Mtb x Ntb x Ktb register-tile kernel (FusedTiles,
//                   32x32x8, Mt = Nt = 4): interleaved scalar kernel vs the
//                   split-complex vector kernel on identical packed panels.
//   cgemm-full      the whole blocked CGEMM at the fused FNO shape.
//   fft-radix4-q    one Stockham radix-4 pass at s = 64 (the batched FFT's
//                   vector sweep).
//
// It also measures the one-core FMA peak of every compiled SIMD backend
// (12 independent FMA chains on that backend's register width, best of 3)
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

using Cfg = gemm::FusedTiles;  // paper Table 1: 32x32x8, Mt = Nt = 4

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
/// width: 12 independent accumulator registers (6 split-complex vectors;
/// more chains than FMA latency x ports on current x86 cores), so the loop
/// is bound by FMA throughput alone.  Best of 3.
template <class B>
PeakResult fma_peak() {
  using V = typename B::cvec;
  constexpr std::size_t kVecs = 6;
  constexpr std::size_t kIters = std::size_t{1} << 22;
  const V b = B::broadcast_split(0.5f, 0.25f);
  std::vector<float> sink_re(B::lanes), sink_im(B::lanes);
  float total = 0.0f;
  const double seconds = runtime::time_best_of(3, [&] {
    V acc[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[v] = B::broadcast_split(static_cast<float>(v), 0.0f);
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

template <class B>
void run_micro_simd(float* acc_split, const float* Apack, const float* Bpack, std::size_t kc) {
  constexpr std::size_t JW = gemm::kJBlock<B, Cfg::Nt>;
  for (std::size_t ii = 0; ii < Cfg::Mtb; ii += Cfg::Mt) {
    for (std::size_t jj = 0; jj < Cfg::Ntb; jj += JW) {
      gemm::micro_accumulate_split<B, Cfg::Mt, JW, Cfg::Mtb, Cfg::Ntb>(acc_split, Apack, Bpack,
                                                                       kc, ii, jj);
    }
  }
}

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
  gemm::pack_a_tile_split<Cfg::Mtb, Cfg::Ktb>(ApackS.data(), A.data(), Cfg::Ktb, 0, 0, Cfg::Mtb,
                                              Cfg::Ktb);
  gemm::pack_b_tile_split<Cfg::Ntb, Cfg::Ktb>(BpackS.data(), Bm.data(), Cfg::Ntb, 0, 0, Cfg::Ktb,
                                              Cfg::Ntb);

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
      run_micro_simd<simd::Active>(accS.data(), ApackS.data(), BpackS.data(), Cfg::Ktb);
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
  rows.push_back(bench_fft_radix4_pass(reps));

  std::printf("%-24s %12s %12s %10s %10s %8s %7s\n", "kernel", "scalar(us)", "simd(us)",
              "sc GF/s", "simd GF/s", "speedup", "peak");
  for (const auto& r : rows) {
    std::printf("%-24s %12.2f %12.2f %10.2f %10.2f %7.2fx", r.name.c_str(),
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
