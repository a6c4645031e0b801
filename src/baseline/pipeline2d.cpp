#include "baseline/pipeline2d.hpp"

#include <cstdint>
#include <type_traits>

#include "baseline/memcopy_stages.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"
#include "gemm/batched.hpp"
#include "runtime/timer.hpp"

namespace turbofno::baseline {

BaselinePipeline2d::BaselinePipeline2d(Spectral2dProblem prob)
    : fused::SpectralPipeline2d(prob, fused::variant_name(fused::Variant::PyTorch), "pytorch-2d"),
      fwd_full_(fft::Plan2dDesc{prob.nx, prob.ny, fft::Direction::Forward}),
      inv_full_(fft::Plan2dDesc{prob.nx, prob.ny, fft::Direction::Inverse}) {
  prob_.batch = 0;  // the intermediates grow from empty to the capacity hint
  reserve(prob.batch);
}

void BaselinePipeline2d::reserve(std::size_t batch) {
  if (batch <= prob_.batch) return;
  // Grow before bumping the capacity mark (exception safety).
  const std::size_t field = prob_.nx * prob_.ny;
  const std::size_t modes = prob_.modes_x * prob_.modes_y;
  freq_full_.resize(batch * prob_.hidden * field);
  freq_trunc_.resize(batch * prob_.hidden * modes);
  mixed_.resize(batch * prob_.out_dim * modes);
  mixed_full_.resize(batch * prob_.out_dim * field);
  prob_.batch = batch;
}

void BaselinePipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                     std::span<c32> v, std::size_t batch) {
  run_lane(u, w, v, batch);
}

void BaselinePipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                          std::span<float> v, std::size_t batch) {
  run_lane(u, w, v, batch);
}

template <class T>
void BaselinePipeline2d::run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v,
                                  std::size_t batch) {
  constexpr bool kReal = std::is_same_v<T, float>;
  const std::size_t field = prob_.nx * prob_.ny;
  check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field, batch,
                    kReal ? "BaselinePipeline2d(real)" : "BaselinePipeline2d");
  if constexpr (kReal) {
    if (!fwd_y_full_) {
      inv_x_full_ = fft::acquire_plan({prob_.nx, fft::Direction::Inverse});
      fwd_x_full_ = fft::acquire_plan({prob_.nx, fft::Direction::Forward});
      inv_y_full_ = fft::acquire_plan({prob_.ny, fft::Direction::Inverse});
      fwd_y_full_ = fft::acquire_plan({prob_.ny, fft::Direction::Forward});
      real_x_flops_ = fft::rfft2d_x_stage_flops(prob_.nx, prob_.ny, prob_.nx / 2 + 1);
    }
  }
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::uint64_t B = batch;
  const std::uint64_t K = prob_.hidden;
  const std::uint64_t O = prob_.out_dim;
  const std::uint64_t NX = prob_.nx;
  const std::uint64_t NY = prob_.ny;
  const std::uint64_t MY = prob_.modes_y;
  // X-rows of the full and of the kept spectrum: the real lane's X axis
  // holds the RFFT half-spectrum.
  const std::uint64_t FX = kReal ? NX / 2 + 1 : NX;
  const std::uint64_t MX = kReal ? prob_.modes_x / 2 + 1 : prob_.modes_x;
  const std::uint64_t full = FX * NY;
  const std::uint64_t modes = MX * MY;

  // FLOPs per field of the full transforms.
  const std::uint64_t fwd_flops =
      kReal ? real_x_flops_ + FX * fwd_y_full_->flops_per_signal() : fwd_full_.flops_per_field();
  const std::uint64_t inv_flops =
      kReal ? FX * inv_y_full_->flops_per_signal() + real_x_flops_ : inv_full_.flops_per_field();

  // Stage 1: full 2D forward transform.  cuFFT's 2D transforms make two
  // passes over global memory (one per axis); the byte accounting reflects
  // both.
  {
    runtime::Timer t;
    if constexpr (kReal) {
      // The Y pass runs in place: a full-length plan keeps every bin.
      const auto spectra = freq_full_.span().first(B * K * full);
      fft::rfft2d_x_stage(*fwd_x_full_, FX, u.data(), spectra.data(), B * K, NY);
      fwd_y_full_->execute(spectra, spectra, B * K * FX);
    } else {
      fwd_full_.execute(u, freq_full_.span(), B * K);
    }
    auto& sc = counters_.stage("fft2d");
    sc.seconds = t.seconds();
    sc.bytes_read = B * K * field * sizeof(T) + B * K * full * sizeof(c32);
    sc.bytes_written = 2 * B * K * full * sizeof(c32);
    sc.flops = B * K * fwd_flops;
    sc.kernel_launches = kReal ? 2 : 1;
  }

  // Stage 2: truncate memcopy of the low-frequency corner.
  {
    runtime::Timer t;
    truncate_copy_2d(freq_full_.span().first(B * K * full), freq_trunc_.span().first(B * K * modes),
                     B * K, FX, NY, MX, MY, &counters_.stage("truncate-copy"));
    counters_.stage("truncate-copy").seconds = t.seconds();
  }

  // Stage 3: batched CGEMM along the hidden dimension.
  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * modes);
    strides.c = static_cast<std::ptrdiff_t>(O * modes);
    gemm::cgemm_batched(O, modes, K, c32{1.0f, 0.0f}, w.data(), K, freq_trunc_.data(), modes,
                        c32{0.0f, 0.0f}, mixed_.data(), modes, B, strides);
    auto& sc = counters_.stage("cgemm");
    sc.seconds = t.seconds();
    sc.bytes_read = (B * K * modes + O * K) * sizeof(c32);
    sc.bytes_written = B * O * modes * sizeof(c32);
    sc.flops = trace::cgemm_flops(B * modes, O, K);
    sc.kernel_launches = 1;
  }

  // Stage 4: zero-pad memcopy back to the full spectrum.
  {
    runtime::Timer t;
    pad_copy_2d(mixed_.span().first(B * O * modes), mixed_full_.span().first(B * O * full), B * O,
                MX, MY, FX, NY, &counters_.stage("pad-copy"));
    counters_.stage("pad-copy").seconds = t.seconds();
  }

  // Stage 5: full 2D inverse transform (again two global passes).
  {
    runtime::Timer t;
    if constexpr (kReal) {
      const auto padded = mixed_full_.span().first(B * O * full);
      inv_y_full_->execute(padded, padded, B * O * FX);
      fft::irfft2d_x_stage(*inv_x_full_, FX, padded.data(), v.data(), B * O, NY);
    } else {
      inv_full_.execute(mixed_full_.span(), v, B * O);
    }
    auto& sc = counters_.stage("ifft2d");
    sc.seconds = t.seconds();
    sc.bytes_read = 2 * B * O * full * sizeof(c32);
    sc.bytes_written = B * O * full * sizeof(c32) + B * O * field * sizeof(T);
    sc.flops = B * O * inv_flops;
    sc.kernel_launches = kReal ? 2 : 1;
  }
}

}  // namespace turbofno::baseline
