#include "fused/pipeline2d.hpp"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "fft/fft2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"
#include "fused/layer.hpp"
#include "gemm/batched.hpp"
#include "gemm/pointwise.hpp"
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

/// Copies columns [y0, y0 + g) of `chans` [nx][ny] fields into dense
/// [chans][nx][g] slab rows.
template <class T>
void get_slab(const T* fields, std::size_t chans, std::size_t nx, std::size_t ny, std::size_t y0,
              std::size_t g, T* rows) {
  for (std::size_t r = 0; r < chans * nx; ++r) std::copy_n(fields + r * ny + y0, g, rows + r * g);
}

/// The inverse of get_slab: slab rows back into the fields' columns.
template <class T>
void put_slab(const T* rows, std::size_t chans, std::size_t nx, std::size_t ny, std::size_t y0,
              std::size_t g, T* fields) {
  for (std::size_t r = 0; r < chans * nx; ++r) std::copy_n(rows + r * g, g, fields + r * ny + y0);
}

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
  run_lane<c32>(u, w, v, batch, nullptr);
}

void LadderPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                        std::span<float> v, std::size_t batch) {
  run_lane<float>(u, w, v, batch, nullptr);
}

void LadderPipeline2d::run_layer(const LayerStep<c32>& step, std::span<const c32> w,
                                 std::size_t batch) {
  run_lane(step.in, w, step.out, batch, &step);
}

void LadderPipeline2d::run_layer(const LayerStep<float>& step, std::span<const c32> w,
                                 std::size_t batch) {
  run_lane(step.in, w, step.out, batch, &step);
}

void LadderPipeline2d::pack_weights(std::span<const c32> w) {
  if (fusion_.fwd || fusion_.inv) kloop_.pin(w.data());
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
                                std::size_t batch, const LayerStep<T>* layer) {
  constexpr bool kReal = std::is_same_v<T, float>;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NX = prob_.nx;
  const std::size_t NY = prob_.ny;
  const std::size_t S = NX * NY;
  const gemm::Pointwise* lift = layer != nullptr ? layer->lift : nullptr;
  const gemm::Pointwise* project = layer != nullptr ? layer->project : nullptr;
  const std::size_t C = lift != nullptr ? lift->in : K;       // channels of u
  const std::size_t P = project != nullptr ? project->out : O;  // channels of v
  baseline::check_batch_spans(u.size(), v.size(), C * S, P * S, B,
                              kReal ? "pipeline2d(real)" : "pipeline2d");
  reserve(B);
  counters_.clear();
  if (B == 0) return;
  const std::size_t mx = kReal ? real_modes_x() : prob_.modes_x;

  // The layer's pointwise parts run on the X stages' slabs (fused/layer.hpp):
  // a slab is columns [y0, y0 + g) of one item, dense [channels][NX][g]
  // rows in the task's arena, i.e. NX * g samples per channel.  Hooks see
  // items local to the group that run_groups is on, which starts at b0.
  std::size_t b0 = 0;
  // The first layer's input slab, h = lift(u), computed from u's slab.
  const auto lift_slab = [&](std::size_t b, std::size_t y0, std::size_t g, T* h) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: runs inside an X-stage worker body
    const std::span<T> us = arena.alloc<T>(C * NX * g);
    get_slab(u.data() + b * C * S, C, NX, NY, y0, g, us.data());
    lift->forward(us.data(), h, 1, NX * g);
    // tfno-hot-end
  };
  fft::XSlabHook<T> gather;
  if (lift != nullptr) {
    gather = [&](std::size_t i, std::size_t y0, std::size_t g, T* rows) {
      lift_slab(b0 + i, y0, g, rows);
    };
  }
  // The epilogue: residual, ReLU and projection on the inverse X stage's
  // output slab, then the slab's rows out to v.  Its thread-seconds are
  // summed here and reported as the layer-epilogue stage.
  std::atomic<double> epilogue_s{0.0};
  fft::XSlabHook<T> epilogue;
  if (layer != nullptr) {
    epilogue = [&](std::size_t i, std::size_t y0, std::size_t g, T* rows) {
      const runtime::Timer t;
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: runs inside the inverse X stage's worker body
      const std::size_t b = b0 + i;
      const std::size_t n = NX * g;
      const std::span<T> h = arena.alloc<T>(K * n);
      if (lift != nullptr) {
        lift_slab(b, y0, g, h.data());
      } else {
        get_slab(u.data() + b * K * S, K, NX, NY, y0, g, h.data());
      }
      layer->residual.forward(h.data(), rows, 1, n, /*accumulate=*/true);
      if (layer->relu) gemm::relu(std::span<T>(rows, O * n));
      const T* out = rows;
      if (project != nullptr) {
        const std::span<T> p = arena.alloc<T>(P * n);
        project->forward(rows, p.data(), 1, n);
        out = p.data();
      }
      put_slab(out, P, NX, NY, y0, g, v.data() + b * P * S);
      // tfno-hot-end
      epilogue_s += t.seconds();
    };
  }

  // The real lane's tiles hold its column spectra packed mx = modes_x/2+1
  // apart; its X stages are the two-for-one R2C / C2R column-pair stages
  // (fft/real2d.hpp).
  const XForward x_forward = [&](std::size_t g0, std::size_t g,
                                 const fft::XStageTileDst& dst) {
    b0 = g0;
    const T* src = lift != nullptr ? nullptr : u.data() + g0 * K * S;
    if constexpr (kReal) {
      fft::rfft2d_x_stage_to_tiles(*real_x_fwd_, mx, src, g, K, NY, dst, gather);
    } else {
      fft::fft2d_x_stage_to_tiles(*fft_x_trunc_, src, g, K, NY, dst, gather);
    }
  };
  const XInverse x_inverse = [&](std::size_t g0, std::size_t g,
                                 const fft::XStageTileSrc& src) {
    b0 = g0;
    T* dst = layer != nullptr ? nullptr : v.data() + g0 * O * S;
    if constexpr (kReal) {
      fft::irfft2d_x_stage_from_tiles(*real_x_inv_, mx, src, dst, g, O, NY, epilogue);
    } else {
      fft::fft2d_x_stage_from_tiles(*ifft_x_pad_, src, dst, g, O, NY, epilogue);
    }
  };
  if (fusion_.fwd || fusion_.inv) kloop_.use(w.data());
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
  const auto mix_flops = [&](const gemm::Pointwise* p) -> std::uint64_t {
    if (p == nullptr) return 0;
    // A real mix is one real multiply-add per weight and sample.
    const std::uint64_t f = B * trace::cgemm_flops(S, p->out, p->in);
    return kReal ? f / 4 : f;
  };
  auto& sx = counters_.stage("fft-x-trunc");
  sx.bytes_read = B * C * S * sizeof(T);
  sx.bytes_written = 0;
  sx.flops = B * K * x_fwd_flops + mix_flops(lift);
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
  // The epilogue runs inside the inverse X stage's tasks: its share of
  // that stage's wall-clock is its thread-seconds over the thread count.
  // It reads the layer input again (u when the lift is recomputed) and
  // writes through the stage's output.  (Added before `si` is taken: a new
  // stage may move the others.)
  const double epilogue_seconds = epilogue_s.load() / std::max(runtime::thread_count(), 1);
  if (layer != nullptr) {
    auto& se = counters_.stage("layer-epilogue");
    se.seconds = epilogue_seconds;
    se.bytes_read = B * C * S * sizeof(T);
    se.bytes_written = 0;
    se.flops = mix_flops(lift) + mix_flops(&layer->residual) + mix_flops(project);
    se.kernel_launches = 0;
  }
  auto& si = counters_.stage("ifft-x-pad");
  si.seconds -= epilogue_seconds;
  si.bytes_read = 0;
  si.bytes_written = B * P * S * sizeof(T);
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
