#include "fused/pipeline2d.hpp"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "fft/fft2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"
#include "gemm/batched.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "runtime/timer.hpp"

namespace turbofno::fused {

namespace {

constexpr std::size_t kTb = KLoopGemm::Tiles::Ktb;

// Grain of the fused (batch x x-block) middle loop: at least two tasks per
// chunk.  Each chunk sets up private FFT/GEMM workspaces, so on many-core
// hosts single-task chunks spend a measurable fraction of their time on
// setup; two-task chunks halve that without costing parallelism on the
// shapes that matter.
constexpr std::size_t kFusedGrain = 2;

// Cache budget for one fused-middle batch group's staging tiles (input plus
// output planes together).  Groups sized under this stay resident between
// the X stage that fills them and the middle/inverse stages that drain
// them, which is where the skipped [B*K*mx*ny] intermediate round trip
// turns into wall-clock.
constexpr std::size_t kMidStagingBudgetBytes = 8u << 20;

std::atomic<std::size_t> g_mid_group_override{0};

}  // namespace

void set_fused_mid_group(std::size_t g) noexcept {
  g_mid_group_override.store(g, std::memory_order_relaxed);
}

std::size_t fused_mid_group_override() noexcept {
  return g_mid_group_override.load(std::memory_order_relaxed);
}

LadderPipeline2d::LadderPipeline2d(Variant v, baseline::Spectral2dProblem prob)
    : SpectralPipeline2d(prob, variant_name(v), counters_name(fusion_of(v), "-2d")),
      fusion_(fusion_of(v)),
      fft_x_trunc_(fft::acquire_plan({prob.nx, fft::Direction::Forward, prob.modes_x})),
      ifft_x_pad_(fft::acquire_plan({prob.nx, fft::Direction::Inverse, 0, prob.modes_x})),
      fwd_y_(fft::acquire_plan({prob.ny, fft::Direction::Forward, prob.modes_y})),
      inv_y_(fft::acquire_plan({prob.ny, fft::Direction::Inverse, 0, prob.modes_y})),
      real_x_fwd_(fft::acquire_plan({prob.nx, fft::Direction::Forward})),
      real_x_inv_(fft::acquire_plan({prob.nx, fft::Direction::Inverse})),
      real_x_flops_(fft::rfft2d_x_stage_flops(prob.nx, prob.ny, real_modes_x())),
      kloop_(prob.out_dim, prob.hidden) {
  // The group-scaled buffers are sized lazily by run_groups.
}

void LadderPipeline2d::ensure_mid_buffers(std::size_t group) {
  // Sized for the complex lane's modes_x x-rows, which also covers the real
  // lane's real_modes_x() <= modes_x.
  const auto ensure = [](AlignedBuffer<c32>& buf, std::size_t elems) {
    if (buf.size() < elems) buf.resize(elems);
  };
  const std::size_t tile = prob_.ny * prob_.modes_x;
  const std::size_t modes = prob_.modes_x * prob_.modes_y;
  ensure(staging_in_, group * prob_.hidden * tile);
  ensure(staging_out_, group * prob_.out_dim * tile);
  if (!fusion_.fwd) ensure(freq_, group * prob_.hidden * modes);
  if (!fusion_.inv) ensure(mixed_, group * prob_.out_dim * modes);
}

void LadderPipeline2d::reserve(std::size_t batch) {
  if (batch != 0) {
    // Pre-size the group buffers so a batch this large triggers no
    // allocation on the run path (mid_group() caps them at one cache-budget
    // group).  Grow the buffers BEFORE bumping the capacity mark: a
    // bad_alloc here must not leave problem().batch claiming workspaces
    // that were never grown.
    ensure_mid_buffers(mid_group(batch));
  }
  if (batch > prob_.batch) prob_.batch = batch;
}

void LadderPipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                   std::span<c32> v, std::size_t batch) {
  run_lane(u, w, v, batch);
}

void LadderPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                        std::span<float> v, std::size_t batch) {
  run_lane(u, w, v, batch);
}

std::size_t LadderPipeline2d::mid_group(std::size_t batch) const noexcept {
  if (batch == 0) return 1;
  const std::size_t ov = fused_mid_group_override();
  if (ov > 0) return std::min(ov, batch);
  const std::size_t per_b =
      (prob_.hidden + prob_.out_dim) * prob_.modes_x * prob_.ny * sizeof(c32);
  const std::size_t bg = std::max<std::size_t>(kMidStagingBudgetBytes / per_b, 1);
  return std::min(bg, batch);
}

void LadderPipeline2d::y_forward_rows(const fft::FftPlan& plan, const MidView& mv,
                                      std::size_t channels, std::size_t mx, std::size_t my,
                                      c32* spectra) {
  // One task per (bl, channel, block of 8 x-rows): the rows are 8 adjacent
  // staging columns, so the block gathers one 64-byte line per y.
  const std::size_t nblk = (mx + fft::kBlockCols - 1) / fft::kBlockCols;
  runtime::parallel_for(0, mv.count * channels * nblk, 2, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(plan.blocked_scratch_elems());
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t bl = r / (channels * nblk);
      const std::size_t c = (r / nblk) % channels;
      const std::size_t x0 = (r % nblk) * fft::kBlockCols;
      plan.execute_blocked(std::min(fft::kBlockCols, mx - x0), mv.in_row(bl, c, x0),
                           fft::field_layout(mv.mx),
                           spectra + ((bl * channels + c) * mx + x0) * my, fft::tile_layout(my),
                           work);
    }
    // tfno-hot-end
  });
}

void LadderPipeline2d::y_inverse_rows(const fft::FftPlan& plan, const MidView& mv,
                                      std::size_t channels, std::size_t mx, std::size_t my,
                                      const c32* spectra) {
  const std::size_t nblk = (mx + fft::kBlockCols - 1) / fft::kBlockCols;
  runtime::parallel_for(0, mv.count * channels * nblk, 2, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(plan.blocked_scratch_elems());
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t bl = r / (channels * nblk);
      const std::size_t c = (r / nblk) % channels;
      const std::size_t x0 = (r % nblk) * fft::kBlockCols;
      plan.execute_blocked(std::min(fft::kBlockCols, mx - x0),
                           spectra + ((bl * channels + c) * mx + x0) * my, fft::tile_layout(my),
                           mv.out_row(bl, c, x0), fft::field_layout(mv.mx), work);
    }
    // tfno-hot-end
  });
}

void LadderPipeline2d::run_groups(std::size_t batch, std::size_t mx, std::size_t group,
                                  const XForward& x_forward,
                                  const std::function<void(const MidView&)>& middle,
                                  const XInverse& x_inverse) {
  const std::size_t NY = prob_.ny;
  const std::size_t bg = std::max<std::size_t>(group, 1);
  ensure_mid_buffers(bg);
  const fft::XStageTileDst dst = [this, mx, NY](std::size_t f, std::size_t y0, std::size_t) {
    return staging_in_.data() + (f * NY + y0) * mx;
  };
  const fft::XStageTileSrc src = [this, mx, NY](std::size_t f, std::size_t y0, std::size_t) {
    return static_cast<const c32*>(staging_out_.data() + (f * NY + y0) * mx);
  };

  // Each group runs X -> middle -> inverse X back to back so the tiles are
  // consumed while still cache-resident; the parallel_for inside each phase
  // keeps the worker pool busy (group * K * slab tasks).
  for (std::size_t b0 = 0; b0 < batch; b0 += bg) {
    const std::size_t g = std::min(bg, batch - b0);
    {
      runtime::Timer t;
      x_forward(b0, g, dst);
      counters_.stage("fft-x-trunc").seconds += t.seconds();
    }

    MidView mv;
    mv.in = staging_in_.data();
    mv.out = staging_out_.data();
    mv.count = g;
    mv.mx = mx;
    mv.chan = NY * mx;
    mv.in_b = prob_.hidden * mv.chan;
    mv.out_b = prob_.out_dim * mv.chan;
    middle(mv);

    {
      runtime::Timer t;
      x_inverse(b0, g, src);
      counters_.stage("ifft-x-pad").seconds += t.seconds();
    }
  }
}

template <class T>
void LadderPipeline2d::run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v,
                                std::size_t batch) {
  constexpr bool kReal = std::is_same_v<T, float>;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NX = prob_.nx;
  const std::size_t NY = prob_.ny;
  baseline::check_batch_spans(u.size(), v.size(), K * NX * NY, O * NX * NY, B,
                              kReal ? "pipeline2d(real)" : "pipeline2d");
  reserve(B);
  counters_.clear();
  if (B == 0) return;
  const std::size_t mx = kReal ? real_modes_x() : prob_.modes_x;

  // The real lane's tiles hold its column spectra packed mx = modes_x/2+1
  // apart; its X stages are the two-for-one R2C / C2R column-pair stages
  // (fft/real2d.hpp).
  const XForward x_forward = [&](std::size_t b0, std::size_t g,
                                 const fft::XStageTileDst& dst) {
    const T* src = u.data() + b0 * K * NX * NY;
    if constexpr (kReal) {
      fft::rfft2d_x_stage_to_tiles(*real_x_fwd_, mx, src, g * K, NY, dst);
    } else {
      fft::fft2d_x_stage_to_tiles(*fft_x_trunc_, src, g * K, NY, dst);
    }
  };
  const XInverse x_inverse = [&](std::size_t b0, std::size_t g,
                                 const fft::XStageTileSrc& src) {
    T* dst = v.data() + b0 * O * NX * NY;
    if constexpr (kReal) {
      fft::irfft2d_x_stage_from_tiles(*real_x_inv_, mx, src, dst, g * O, NY);
    } else {
      fft::fft2d_x_stage_from_tiles(*ifft_x_pad_, src, dst, g * O, NY);
    }
  };
  if (fusion_.fwd || fusion_.inv) kloop_.pack_weights(w.data());
  with_fusion(fusion_, [&](auto fwd_fused, auto inv_fused) {
    run_groups(B, mx, mid_group(B), x_forward,
               [&](const MidView& mv) {
                 middle_group<decltype(fwd_fused)::value, decltype(inv_fused)::value>(mv, w);
               },
               x_inverse);
  });

  // Closed-form per-run accounting.  The staging tiles are the CPU analogue
  // of the paper's shared-memory residency, so — like the fused kernels'
  // on-chip operands — they count zero global-memory traffic: the X stages
  // touch only the true global tensors u and v, and the Y chain's input
  // and output bytes are zero.  FLOPs are per (batch, channel) field.
  const std::uint64_t x_fwd_flops =
      kReal ? real_x_flops_ : NY * fft_x_trunc_->flops_per_signal();
  const std::uint64_t x_inv_flops = kReal ? real_x_flops_ : NY * ifft_x_pad_->flops_per_signal();
  auto& sx = counters_.stage("fft-x-trunc");
  sx.bytes_read = B * K * NX * NY * sizeof(T);
  sx.bytes_written = 0;
  sx.flops = B * K * x_fwd_flops;
  sx.kernel_launches = 1;
  const std::uint64_t modes = mx * prob_.modes_y;
  account_chain(counters_, fusion_,
                {.fwd_stage = "fft-y-trunc",
                 .inv_stage = "ifft-y-pad",
                 .src_bytes = 0,
                 .dst_bytes = 0,
                 .in_spectra = B * K * modes,
                 .out_spectra = B * O * modes,
                 .weights = O * K,
                 .fwd_flops = B * K * mx * fwd_y_->flops_per_signal(),
                 .gemm_flops = trace::cgemm_flops(B * modes, O, K),
                 .inv_flops = B * O * mx * inv_y_->flops_per_signal()});
  auto& si = counters_.stage("ifft-x-pad");
  si.bytes_read = 0;
  si.bytes_written = B * O * NX * NY * sizeof(T);
  si.flops = B * O * x_inv_flops;
  si.kernel_launches = 1;
}

template <bool FwdFused, bool InvFused>
void LadderPipeline2d::middle_group(const MidView& mv, std::span<const c32> w) {
  const std::size_t mx = mv.mx;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MY = prob_.modes_y;
  const std::size_t modes = mx * MY;

  if constexpr (!FwdFused) {
    runtime::Timer t;
    y_forward_rows(*fwd_y_, mv, K, mx, MY, freq_.data());
    counters_.stage("fft-y-trunc").seconds += t.seconds();
  }

  runtime::Timer t;
  if constexpr (!FwdFused && !InvFused) {
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * modes);
    strides.c = static_cast<std::ptrdiff_t>(O * modes);
    gemm::cgemm_batched(O, modes, K, c32{1.0f, 0.0f}, w.data(), K, freq_.data(), modes,
                        c32{0.0f, 0.0f}, mixed_.data(), modes, mv.count, strides);
  } else {
    kloop_group<FwdFused, InvFused>(mv);
  }
  counters_.stage(kloop_stage(fusion_)).seconds += t.seconds();

  if constexpr (!InvFused) {
    runtime::Timer ti;
    y_inverse_rows(*inv_y_, mv, O, mx, MY, mixed_.data());
    counters_.stage("ifft-y-pad").seconds += ti.seconds();
  }
}

template <bool FwdFused, bool InvFused>
void LadderPipeline2d::kloop_group(const MidView& mv) {
  const std::size_t mx = mv.mx;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MY = prob_.modes_y;

  // One task per (batch, x-block), iterating the hidden dim like the GEMM
  // k-loop (Figure 6(c)); with both boundaries fused the middle never
  // touches global memory (Figure 9's fused kernel).  An x-block is
  // kBlockCols adjacent staging columns, one column block of the FFT
  // engine: a fused forward transforms each k-tile channel's block straight
  // out of the staging tile into the B operand tile, and a fused inverse
  // transforms each output channel's accumulator rows straight back into
  // the staging tile.  The stored spectra are read and written
  // row-contiguously.
  const std::size_t xb = std::min(fft::kBlockCols, mx);
  const std::size_t nblk = (mx + xb - 1) / xb;
  const std::size_t work_elems =
      FwdFused ? fwd_y_->blocked_scratch_elems() : inv_y_->blocked_scratch_elems();
  const std::size_t acc_floats = kloop_.acc_floats(MY);
  runtime::parallel_for(0, mv.count * nblk, kFusedGrain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    // tile: the k-tile's spectra, channel kk's x-row xi at (kk * xb + xi) * MY.
    const std::span<c32> tile = FwdFused ? arena.alloc<c32>(kTb * xb * MY) : std::span<c32>{};
    const std::span<float> panels = arena.alloc<float>(KLoopGemm::panel_floats(MY));
    const std::span<float> acc = arena.alloc<float>(xb * acc_floats);
    const std::span<c32> rows = InvFused ? arena.alloc<c32>(xb * MY) : std::span<c32>{};
    const std::span<c32> work = arena.alloc<c32>(work_elems);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t bl = i / nblk;
      const std::size_t x0 = (i % nblk) * xb;
      const std::size_t xc = std::min(xb, mx - x0);
      for (std::size_t xi = 0; xi < xc; ++xi) kloop_.zero(acc.data() + xi * acc_floats, MY);
      for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
        const std::size_t kc = std::min(kTb, K - k0);
        if constexpr (FwdFused) {
          for (std::size_t kk = 0; kk < kc; ++kk) {
            fwd_y_->execute_blocked(xc, mv.in_row(bl, k0 + kk, x0), fft::field_layout(mx),
                                    tile.data() + kk * xb * MY, fft::tile_layout(MY), work);
          }
        }
        for (std::size_t xi = 0; xi < xc; ++xi) {
          // Stored rows are MY apart within a channel, channels mx*MY apart.
          const c32* spectra = tile.data() + xi * MY;
          std::size_t ld = xb * MY;
          if constexpr (!FwdFused) {
            spectra = freq_.data() + ((bl * K + k0) * mx + x0 + xi) * MY;
            ld = mx * MY;
          }
          kloop_.accumulate(acc.data() + xi * acc_floats, panels.data(), spectra, ld, k0, MY);
        }
      }
      for (std::size_t o = 0; o < O; ++o) {
        for (std::size_t xi = 0; xi < xc; ++xi) {
          const float* xacc = acc.data() + xi * acc_floats;
          if constexpr (InvFused) {
            kloop_.read_row(xacc, o, MY, rows.data() + xi * MY);
          } else {
            kloop_.read_row(xacc, o, MY, mixed_.data() + ((bl * O + o) * mx + x0 + xi) * MY);
          }
        }
        if constexpr (InvFused) {
          inv_y_->execute_blocked(xc, rows.data(), fft::tile_layout(MY), mv.out_row(bl, o, x0),
                                  fft::field_layout(mx), work);
        }
      }
    }
    // tfno-hot-end
  });
}

}  // namespace turbofno::fused
