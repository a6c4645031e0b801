// The k-loop-aligned FFT variant (paper Section 2.3 / Figure 6).
//
// Instead of batching FFT pencils along the spatial axis, the fused kernel
// iterates one "thread block" (here: one task) along the hidden dimension,
// transforming k_tb channels at a time and depositing their truncated
// spectra straight into the tile that the CGEMM consumes as its streaming
// operand — the CPU analogue of writing the FFT output into the shared-
// memory A block.
//
// Both classes take contiguous signals only.  The 2D driver's fused k-loop
// first transposes a block of x-rows out of its y-major staging tiles
// (LadderPipeline2d::gather_xblock / scatter_xblock), so the transforms
// here never see a strided signal.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "fft/plan.hpp"
#include "tensor/complex.hpp"

namespace turbofno::fused {

/// Forward, output-truncated FFT feeding the GEMM k-loop.
class KLoopFft {
 public:
  KLoopFft(std::size_t n, std::size_t modes);

  /// Transforms `count` channel signals into the k-major tile:
  /// tile[kk * tile_ld + f] = FFT(u_base + kk * channel_stride)[f], f < modes.
  /// Each signal is contiguous; `work` needs >= 2n elements.
  void forward_tile(const c32* u_base, std::size_t channel_stride, std::size_t count, c32* tile,
                    std::size_t tile_ld, std::span<c32> work) const;

  [[nodiscard]] const fft::FftPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] std::size_t modes() const noexcept { return modes_; }

 private:
  std::size_t modes_;
  // Shared through the process-wide plan cache: every pipeline (and every
  // serving-layer micro-batch bucket) with the same (n, modes) reuses one
  // plan instead of re-deriving op counts and twiddles.
  std::shared_ptr<const fft::FftPlan> plan_;
};

/// Inverse, input-zero-padded FFT consuming GEMM output rows (the CGEMM
/// epilogue of Section 4.2).
class EpilogueIfft {
 public:
  EpilogueIfft(std::size_t n, std::size_t modes);

  /// v_row[0..n) = iFFT(pad_n(c_row[0..modes))).  `work` >= 2n elements.
  void inverse_row(const c32* c_row, c32* v_row, std::span<c32> work) const;

  [[nodiscard]] const fft::FftPlan& plan() const noexcept { return *plan_; }

 private:
  std::size_t modes_;
  std::shared_ptr<const fft::FftPlan> plan_;
};

/// The fused GEMM rank-kc update: C[O x m] += W[:, k0 .. k0+kc) * At[kc x m].
/// At rows are the freshly produced spectra (B-operand panel); W is the
/// [out_dim x hidden] weight matrix with leading dimension ldw.
/// Interleaved (c32) operands; vectorized along m.
void rank_update(c32* C, std::size_t ldc, const c32* W, std::size_t ldw, std::size_t k0,
                 const c32* At, std::size_t lda_t, std::size_t out_dim, std::size_t m,
                 std::size_t kc);

/// Split-complex rank update — the hot path of the fused pipelines.  The
/// accumulator and the spectra tile are separate re/im float planes with a
/// common leading dimension `ld` (a whole number of SIMD lanes, padding
/// zeroed), so the inner loop is a pure broadcast-FMA stream with no
/// shuffles:
///   c_{re,im}[o * ld + f]  += W[o, k0+kk] * at_{re,im}[kk * ld + f]
/// for all o < out_dim, kk < kc, f < ld.
void rank_update_split(float* c_re, float* c_im, const c32* W, std::size_t ldw, std::size_t k0,
                       const float* at_re, const float* at_im, std::size_t ld,
                       std::size_t out_dim, std::size_t kc);

}  // namespace turbofno::fused
