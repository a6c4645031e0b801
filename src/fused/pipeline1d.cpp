#include "fused/pipeline1d.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fft/plan_cache.hpp"
#include "gemm/batched.hpp"
#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "runtime/timer.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fused {

namespace {

constexpr std::size_t kMtb = KLoopGemm::Tiles::Mtb;
constexpr std::size_t kNtb = KLoopGemm::Tiles::Ntb;
constexpr std::size_t kTb = KLoopGemm::Tiles::Ktb;
constexpr std::size_t kTileFloats = 2 * kMtb * kNtb;    // split accumulator tile
constexpr std::size_t kAPanelFloats = 2 * kMtb * kTb;  // split W panel
constexpr std::size_t kBPanelFloats = 2 * kNtb * kTb;  // split spectra panel
constexpr std::size_t kRows = gemm::RegBlock<simd::Active, false>::rows;  // W row blocks

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept { return (a + b - 1) / b; }

// Transforms g signals, signal c at in + c * in_ld and out + c * out_ld:
// a complex plan runs them column-blocked, the real lane's plans one at a
// time.  scratch_for sizes `work` for either.
void transform_rows(const fft::FftPlan& plan, std::size_t g, const c32* in, std::size_t in_ld,
                    c32* out, std::size_t out_ld, std::span<c32> work) {
  plan.execute_blocked(g, in, fft::tile_layout(in_ld), out, fft::tile_layout(out_ld), work);
}

template <class Plan, class In, class Out>
void transform_rows(const Plan& plan, std::size_t g, const In* in, std::size_t in_ld, Out* out,
                    std::size_t out_ld, std::span<c32> work) {
  for (std::size_t c = 0; c < g; ++c) {
    plan.execute_one(in + c * in_ld, 1, out + c * out_ld, 1, work);
  }
}

std::size_t scratch_for(const fft::FftPlan& plan) noexcept { return plan.blocked_scratch_elems(); }

template <class Plan>
std::size_t scratch_for(const Plan& plan) noexcept {
  return plan.scratch_elems();
}

}  // namespace

KLoopGemm::KLoopGemm(std::size_t out_dim, std::size_t hidden)
    : out_dim_(out_dim),
      hidden_(hidden),
      k_tiles_(ceil_div(hidden, kTb)),
      w_panels_(ceil_div(out_dim, kMtb) * k_tiles_ * kAPanelFloats) {}

void KLoopGemm::pin(const c32* w) {
  pack(w);
  pinned_ = w;
}

void KLoopGemm::pack(const c32* w) {
  float* dst = w_panels_.data();
  for (std::size_t i0 = 0; i0 < out_dim_; i0 += kMtb) {
    for (std::size_t k0 = 0; k0 < hidden_; k0 += kTb, dst += kAPanelFloats) {
      gemm::pack_a_tile_split<kRows>(dst, w, hidden_, i0, k0, std::min(kMtb, out_dim_ - i0),
                                     std::min(kTb, hidden_ - k0));
    }
  }
}

std::size_t KLoopGemm::acc_floats(std::size_t m) const noexcept {
  return ceil_div(out_dim_, kMtb) * ceil_div(m, kNtb) * kTileFloats;
}

std::size_t KLoopGemm::panel_floats(std::size_t m) noexcept {
  return ceil_div(m, kNtb) * kBPanelFloats;
}

void KLoopGemm::zero(float* acc, std::size_t m) const noexcept {
  for (std::size_t i0 = 0; i0 < out_dim_; i0 += kMtb) {
    // The rows the register blocks touch (gemm::for_each_block).
    const std::size_t rows = ceil_div(std::min(kMtb, out_dim_ - i0), kRows) * kRows;
    for (std::size_t j0 = 0; j0 < m; j0 += kNtb, acc += kTileFloats) {
      std::fill_n(acc, rows * kNtb, 0.0f);
      std::fill_n(acc + kMtb * kNtb, rows * kNtb, 0.0f);
    }
  }
}

void KLoopGemm::accumulate(float* acc, float* panels, const c32* spectra, std::size_t ld,
                           std::size_t k0, std::size_t m) const noexcept {
  using B = simd::Active;
  const std::size_t kc = std::min(kTb, hidden_ - k0);
  for (std::size_t j0 = 0; j0 < m; j0 += kNtb) {
    gemm::pack_b_tile_split<kNtb, B>(panels + j0 / kNtb * kBPanelFloats, spectra, ld, 0, j0, kc,
                                     std::min(kNtb, m - j0));
  }
  const float* a = w_panels_.data() + k0 / kTb * kAPanelFloats;
  for (std::size_t i0 = 0; i0 < out_dim_; i0 += kMtb, a += k_tiles_ * kAPanelFloats) {
    const std::size_t mi = std::min(kMtb, out_dim_ - i0);
    for (std::size_t j0 = 0; j0 < m; j0 += kNtb, acc += kTileFloats) {
      gemm::accumulate_tile_split<Tiles, B>(acc, a, panels + j0 / kNtb * kBPanelFloats, kc, mi,
                                            std::min(kNtb, m - j0));
    }
  }
}

void KLoopGemm::read_row(const float* acc, std::size_t o, std::size_t m, c32* dst) const noexcept {
  const float* re = acc + o / kMtb * ceil_div(m, kNtb) * kTileFloats + o % kMtb * kNtb;
  for (std::size_t j0 = 0; j0 < m; j0 += kNtb, re += kTileFloats) {
    simd::interleave_planes(re, re + kMtb * kNtb, dst + j0, std::min(kNtb, m - j0));
  }
}

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
    : SpectralPipeline1d(prob, variant_name(v), counters_name(fusion_of(v), "-1d")),
      fusion_(fusion_of(v)),
      fwd_(fft::acquire_plan({prob.n, fft::Direction::Forward, prob.modes})),
      inv_(fft::acquire_plan({prob.n, fft::Direction::Inverse, 0, prob.modes})),
      kloop_(prob.out_dim, prob.hidden) {
  if (!fusion_.fwd) freq_.resize(prob_.batch * prob_.hidden * prob_.modes);
  if (!fusion_.inv) mixed_.resize(prob_.batch * prob_.out_dim * prob_.modes);
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

void LadderPipeline1d::pack_weights(std::span<const c32> w) {
  if (fusion_.fwd || fusion_.inv) kloop_.pin(w.data());
}

void LadderPipeline1d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                   std::span<c32> v, std::size_t batch) {
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * prob_.n,
                              prob_.out_dim * prob_.n, batch, "pipeline1d");
  run_lane(*fwd_, *inv_, prob_.modes, u, w, v, batch);
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
    kloop_.use(w.data());
    const std::size_t work_elems =
        FwdFused ? (InvFused ? std::max(scratch_for(fwd), scratch_for(inv)) : scratch_for(fwd))
                 : scratch_for(inv);
    runtime::parallel_for(0, B, 1, [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      // The forward's output tile is the GEMM's B operand (the paper's
      // shared-memory tile); the accumulator tiles stay cache-resident.
      const std::span<c32> tile = FwdFused ? arena.alloc<c32>(kTb * m) : std::span<c32>{};
      const std::span<float> panels = arena.alloc<float>(KLoopGemm::panel_floats(m));
      const std::span<float> acc = arena.alloc<float>(kloop_.acc_floats(m));
      const std::span<c32> rows =
          InvFused ? arena.alloc<c32>(fft::kBlockCols * m) : std::span<c32>{};
      const std::span<c32> work = arena.alloc<c32>(work_elems);
      for (std::size_t b = lo; b < hi; ++b) {
        kloop_.zero(acc.data(), m);
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          // B operand source: transform the k-tile's channels straight into
          // the tile, or read the stored spectra (already k-major).
          const c32* spectra = tile.data();
          if constexpr (FwdFused) {
            transform_rows(fwd, std::min(kTb, K - k0), u.data() + (b * K + k0) * N, N,
                           tile.data(), m, work);
          } else {
            spectra = freq_.data() + (b * K + k0) * m;
          }
          kloop_.accumulate(acc.data(), panels.data(), spectra, m, k0, m);
        }
        // Accumulator sink: the iFFT epilogue straight out of the tile (the
        // paper's Figure 6(f)), one column block of output rows at a time,
        // or the stored mixed spectra.
        for (std::size_t o0 = 0; o0 < O; o0 += fft::kBlockCols) {
          const std::size_t oc = std::min(fft::kBlockCols, O - o0);
          for (std::size_t oi = 0; oi < oc; ++oi) {
            c32* dst = InvFused ? rows.data() + oi * m : mixed_.data() + (b * O + o0 + oi) * m;
            kloop_.read_row(acc.data(), o0 + oi, m, dst);
          }
          if constexpr (InvFused) {
            transform_rows(inv, oc, rows.data(), m, v.data() + (b * O + o0) * N, N, work);
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
