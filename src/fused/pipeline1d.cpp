#include "fused/pipeline1d.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fft/plan_cache.hpp"
#include "gemm/batched.hpp"
#include "gemm/config.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "runtime/timer.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fused {

namespace {

constexpr std::size_t kTb = gemm::FusedTiles::Ktb;  // paper Table 1: k_tb = 8

}  // namespace

Fusion fusion_of(Variant v) {
  switch (v) {
    case Variant::FftOpt:
      return {false, false};
    case Variant::FusedFftGemm:
      return {true, false};
    case Variant::FusedGemmIfft:
      return {false, true};
    case Variant::FullyFused:
      return {true, true};
    case Variant::PyTorch:
    case Variant::Auto:
      break;
  }
  throw std::invalid_argument("fusion_of: not a fused ladder row");
}

const char* kloop_stage(Fusion f) noexcept {
  if (f.fwd) return f.inv ? "fused-fft-cgemm-ifft" : "fused-fft-cgemm";
  return f.inv ? "fused-cgemm-ifft" : "cgemm";
}

std::string counters_name(Fusion f, const char* dims) {
  const char* row = f.fwd ? (f.inv ? "fully-fused" : "fused-fft-gemm")
                          : (f.inv ? "fused-gemm-ifft" : "fftopt");
  return std::string(row) + dims;
}

void account_chain(trace::PipelineCounters& c, Fusion f, const ChainRun& r) {
  constexpr std::uint64_t e = sizeof(c32);
  if (!f.fwd) {
    auto& s = c.stage(r.fwd_stage);
    s.bytes_read = r.src_bytes;
    s.bytes_written = r.in_spectra * e;  // only the kept bins
    s.flops = r.fwd_flops;
    s.kernel_launches = 1;
    s.seconds += r.fwd_seconds;
  }
  auto& k = c.stage(kloop_stage(f));
  k.bytes_read = (f.fwd ? r.src_bytes : r.in_spectra * e) + r.weights * e;
  k.bytes_written = f.inv ? r.dst_bytes : r.out_spectra * e;
  k.flops = (f.fwd ? r.fwd_flops : 0) + r.gemm_flops + (f.inv ? r.inv_flops : 0);
  k.kernel_launches = 1;
  k.seconds += r.kloop_seconds;
  if (!f.inv) {
    auto& s = c.stage(r.inv_stage);
    s.bytes_read = r.out_spectra * e;  // only the stored prefix
    s.bytes_written = r.dst_bytes;
    s.flops = r.inv_flops;
    s.kernel_launches = 1;
    s.seconds += r.inv_seconds;
  }
}

LadderPipeline1d::LadderPipeline1d(Variant v, baseline::Spectral1dProblem prob)
    : prob_(prob),
      fusion_(fusion_of(v)),
      name_(variant_name(v)),
      fwd_(prob.n, prob.modes),
      inv_(prob.n, prob.modes),
      counters_(counters_name(fusion_, "-1d")) {
  prob_.validate();
  if (!fusion_.fwd) freq_.resize(prob_.batch * prob_.hidden * prob_.modes);
  if (!fusion_.inv) mixed_.resize(prob_.batch * prob_.out_dim * prob_.modes);
}

void LadderPipeline1d::run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v) {
  run_batched(u, w, v, prob_.batch);
}

void LadderPipeline1d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark: a bad_alloc mid-reserve must
  // not leave problem().batch claiming never-grown workspaces.  Fused
  // boundaries keep their per-task state in the thread arenas.
  if (!fusion_.fwd) freq_.resize(batch * prob_.hidden * prob_.modes);
  if (!fusion_.inv) mixed_.resize(batch * prob_.out_dim * prob_.modes);
  prob_.batch = batch;
}

void LadderPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                   std::span<c32> v, std::size_t batch) {
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch, "pipeline1d");
  run_lane(fwd_.plan(), inv_.plan(), prob_.modes, u, w, v, batch);
}

void LadderPipeline1d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                        std::span<float> v, std::size_t batch) {
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch, "pipeline1d(real)");
  // Lazy acquisition keeps complex-only pipelines free of the RFFT's n >= 4
  // requirement.  rfwd_ is assigned last so it doubles as the "ready" flag
  // even if the inverse acquisition throws.
  const std::size_t mr = prob_.modes / 2 + 1;  // <= modes: workspaces cover it
  if (!rfwd_) {
    rinv_ = fft::acquire_irfft_plan(prob_.n, mr);
    rfwd_ = fft::acquire_rfft_plan(prob_.n, mr);
  }
  run_lane(*rfwd_, *rinv_, mr, u, w, v, batch);
}

template <class T, class FwdPlan, class InvPlan>
void LadderPipeline1d::run_lane(const FwdPlan& fwd, const InvPlan& inv, std::size_t m,
                                std::span<const T> u, std::span<const c32> w, std::span<T> v,
                                std::size_t batch) {
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::uint64_t B = batch;
  const std::uint64_t K = prob_.hidden;
  const std::uint64_t O = prob_.out_dim;
  const std::uint64_t N = prob_.n;
  ChainRun run{.fwd_stage = "fft-trunc",
               .inv_stage = "ifft-pad",
               .src_bytes = B * K * N * sizeof(T),
               .dst_bytes = B * O * N * sizeof(T),
               .in_spectra = B * K * m,
               .out_spectra = B * O * m,
               .weights = O * K,
               .fwd_flops = B * K * fwd.flops_per_signal(),
               .gemm_flops = trace::cgemm_flops(B * m, O, K),
               .inv_flops = B * O * inv.flops_per_signal()};
  with_fusion(fusion_, [&](auto fwd_fused, auto inv_fused) {
    run_chain<decltype(fwd_fused)::value, decltype(inv_fused)::value>(fwd, inv, m, u, w, v,
                                                                       batch, run);
  });
  account_chain(counters_, fusion_, run);
}

template <bool FwdFused, bool InvFused, class T, class FwdPlan, class InvPlan>
void LadderPipeline1d::run_chain(const FwdPlan& fwd, const InvPlan& inv, std::size_t m,
                                 std::span<const T> u, std::span<const c32> w, std::span<T> v,
                                 std::size_t batch, ChainRun& run) {
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t N = prob_.n;

  if constexpr (!FwdFused) {
    runtime::Timer t;
    fwd.execute(u.first(B * K * N), freq_.span().first(B * K * m), B * K);
    run.fwd_seconds = t.seconds();
  }

  runtime::Timer t;
  if constexpr (!FwdFused && !InvFused) {
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * m);
    strides.c = static_cast<std::ptrdiff_t>(O * m);
    gemm::cgemm_batched(O, m, K, c32{1.0f, 0.0f}, w.data(), K, freq_.data(), m,
                        c32{0.0f, 0.0f}, mixed_.data(), m, B, strides);
  } else {
    const std::size_t ld = simd::round_up_lanes(m);
    const std::size_t work_elems =
        FwdFused ? (InvFused ? std::max(fwd.scratch_elems(), inv.scratch_elems())
                             : fwd.scratch_elems())
                 : inv.scratch_elems();
    runtime::parallel_for(0, B, 1, [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      // The forward's output tile is the GEMM A block (the paper's shared-
      // memory tile); the accumulator planes stay cache-resident.
      const std::span<c32> tile = FwdFused ? arena.alloc<c32>(kTb * ld) : std::span<c32>{};
      const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);  // split A planes
      const std::span<float> acc = arena.alloc<float>(2 * O * ld);  // split C planes
      const std::span<c32> row = InvFused ? arena.alloc<c32>(ld) : std::span<c32>{};
      const std::span<c32> work = arena.alloc<c32>(work_elems);
      std::fill(tsplit.begin(), tsplit.end(), 0.0f);  // lane padding must stay zero
      float* tre = tsplit.data();
      float* tim = tre + kTb * ld;
      float* are = acc.data();
      float* aim = are + O * ld;
      for (std::size_t b = lo; b < hi; ++b) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          const std::size_t kc = std::min(kTb, K - k0);
          // A tile source: transform each channel straight into the tile,
          // or read the stored spectra (already k-major); either way the
          // split into SoA planes is the only copy the MAC phase pays.
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const c32* a;
            if constexpr (FwdFused) {
              c32* spectrum = tile.data() + kk * ld;
              fwd.execute_one(u.data() + (b * K + k0 + kk) * N, 1, spectrum, 1, work);
              a = spectrum;
            } else {
              a = freq_.data() + (b * K + k0 + kk) * m;
            }
            simd::split_planes(a, tre + kk * ld, tim + kk * ld, m);
          }
          rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
        }
        // Accumulator sink: the iFFT epilogue straight out of the tile (the
        // paper's Figure 6(f)), or the stored mixed spectra.
        for (std::size_t o = 0; o < O; ++o) {
          if constexpr (InvFused) {
            simd::interleave_planes(are + o * ld, aim + o * ld, row.data(), m);
            inv.execute_one(row.data(), 1, v.data() + (b * O + o) * N, 1, work);
          } else {
            simd::interleave_planes(are + o * ld, aim + o * ld, mixed_.data() + (b * O + o) * m,
                                    m);
          }
        }
      }
      // tfno-hot-end
    });
  }
  run.kloop_seconds = t.seconds();

  if constexpr (!InvFused) {
    runtime::Timer ti;
    inv.execute(mixed_.span().first(B * O * m), v.first(B * O * N), B * O);
    run.inv_seconds = ti.seconds();
  }
}

}  // namespace turbofno::fused
