// The PyTorch-like 2D spectral-convolution pipeline (comparison base).
//
// Full 2D FFT (both passes over global memory, as cuFFT performs), truncate
// copy of the low-frequency corner, batched CGEMM, pad copy, full 2D iFFT.
// Both lanes run the one chain: the complex lane transforms [nx, ny]
// fields and keeps the [modes_x, modes_y] corner; the real lane runs a
// full R2C along X (nx/2+1 x-rows stored) and a full C2C along Y, keeps
// the [modes_x/2+1, modes_y] corner, and inverts with C2C-Y then C2R-X.
#pragma once

#include <memory>
#include <span>

#include "baseline/problem.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fused/ladder.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::baseline {

class BaselinePipeline2d final : public fused::SpectralPipeline2d {
 public:
  explicit BaselinePipeline2d(Spectral2dProblem prob);

  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch) override;
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch) override;
  void reserve(std::size_t batch) override;

 private:
  // One run on either lane: T is the sample type (c32 or float).
  template <class T>
  void run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v, std::size_t batch);

  fft::FftPlan2d fwd_full_;
  fft::FftPlan2d inv_full_;
  std::shared_ptr<const fft::FftPlan> fwd_x_full_;  // lazy: real lane only
  std::shared_ptr<const fft::FftPlan> inv_x_full_;  // lazy: real lane only
  std::shared_ptr<const fft::FftPlan> fwd_y_full_;  // lazy: real lane only
  std::shared_ptr<const fft::FftPlan> inv_y_full_;  // lazy: real lane only
  std::uint64_t real_x_flops_ = 0;  // per field, set with the real plans
  // Both lanes' full spectra; the real lane's [nx/2+1, ny] ones fit too.
  AlignedBuffer<c32> freq_full_;   // [batch, hidden, nx, ny]
  AlignedBuffer<c32> freq_trunc_;  // [batch, hidden, mx, my]
  AlignedBuffer<c32> mixed_;       // [batch, out_dim, mx, my]
  AlignedBuffer<c32> mixed_full_;  // [batch, out_dim, nx, ny]
};

}  // namespace turbofno::baseline
