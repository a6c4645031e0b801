// The PyTorch-like 1D spectral-convolution pipeline (comparison base).
//
// Mirrors Figure 1(b): five separate kernels with full-size intermediates —
// full FFT, truncate copy, batched CGEMM, pad copy, full iFFT.  No pruning,
// no built-in filtering: exactly what cuFFT + cuBLAS + memory kernels do.
// Both lanes run the one chain: the complex lane transforms n-point
// signals and keeps `modes` bins, the real lane stores all n/2+1 RFFT bins
// and keeps modes/2+1 of them.
#pragma once

#include <memory>
#include <span>

#include "baseline/problem.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "fused/ladder.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::baseline {

class BaselinePipeline1d final : public fused::SpectralPipeline1d {
 public:
  explicit BaselinePipeline1d(Spectral1dProblem prob);

  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch) override;
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch) override;
  void reserve(std::size_t batch) override;

 private:
  // One run on either lane: T is the sample type; each signal's full
  // spectrum has `full` bins, of which the first `kept` are mixed.
  template <class T, class FwdPlan, class InvPlan>
  void run_lane(const FwdPlan& fwd, const InvPlan& inv, std::size_t full, std::size_t kept,
                std::span<const T> u, std::span<const c32> w, std::span<T> v, std::size_t batch);

  std::shared_ptr<const fft::FftPlan> fwd_full_;
  std::shared_ptr<const fft::FftPlan> inv_full_;
  std::shared_ptr<const fft::RfftPlan> rfwd_full_;   // lazy: real lane only
  std::shared_ptr<const fft::IrfftPlan> rinv_full_;  // lazy: real lane only
  // Full-size intermediates: the global-memory round trips fusion removes.
  AlignedBuffer<c32> freq_full_;   // [batch, hidden, n]
  AlignedBuffer<c32> freq_trunc_;  // [batch, hidden, modes]
  AlignedBuffer<c32> mixed_;       // [batch, out_dim, modes]
  AlignedBuffer<c32> mixed_full_;  // [batch, out_dim, n]
};

}  // namespace turbofno::baseline
