// Real-input transforms (R2C / C2R) — a library extension beyond the paper.
//
// The paper's kernels are C2C with first-m truncation; canonical FNO uses
// rfft with a conjugate-symmetric half-spectrum.  These plans provide that
// formulation via the classic pack-into-half-size-complex trick: an n-point
// real transform costs one n/2-point complex FFT plus an O(n) untangle.
//
// Spectrum convention: forward produces bins 0..n/2 (n/2 + 1 entries); the
// inverse consumes a (possibly truncated) prefix of such a half-spectrum and
// treats missing bins as zero, mirroring the built-in zero padding of the
// complex plans.  The inverse computes Re(ifft(hermitian_extend(Y))): the
// imaginary part of bin 0 (and of bin n/2 when stored) is projected away, so
// any stored prefix — not just one produced by RfftPlan — yields a real
// signal, matching torch.fft.irfft semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::fft {

/// Forward R2C: n real samples -> the first `keep` of n/2+1 spectrum bins.
class RfftPlan {
 public:
  /// `keep == 0` means all n/2+1 bins.  n must be a power of two >= 4.
  explicit RfftPlan(std::size_t n, std::size_t keep = 0);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t keep() const noexcept { return keep_; }

  /// Batched: `in` holds batch x n floats, `out` receives batch x keep bins.
  void execute(std::span<const float> in, std::span<c32> out, std::size_t batch) const;

  /// Single strided signal: n floats read at `in_stride` (float units) ->
  /// keep bins written at `out_stride` (c32 units).  `work` must hold at
  /// least scratch_elems() elements; exposed so fused pipelines can keep
  /// tile-resident data and arena scratch, mirroring FftPlan::execute_one.
  void execute_one(const float* in, std::ptrdiff_t in_stride, c32* out,
                   std::ptrdiff_t out_stride, std::span<c32> work) const;

  /// Scratch elements execute_one needs (the packed half-size signal plus
  /// the Stockham ping-pong buffer).
  [[nodiscard]] std::size_t scratch_elems() const noexcept { return n_; }

  /// Real FLOPs per signal (half-size complex FFT + untangle).
  [[nodiscard]] std::uint64_t flops_per_signal() const noexcept { return flops_; }

 private:
  std::size_t n_;
  std::size_t keep_;
  std::span<const c32> w_;  // W_n^k, k < n/2 (process-lifetime twiddle table)
  std::uint64_t flops_ = 0;
};

/// Inverse C2R: a stored prefix of a conjugate-symmetric half-spectrum ->
/// n real samples.  Bins [nonzero, n/2] are implicit zeros.
class IrfftPlan {
 public:
  /// `nonzero == 0` means the full n/2+1 bins are stored.
  explicit IrfftPlan(std::size_t n, std::size_t nonzero = 0);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t nonzero() const noexcept { return nonzero_; }

  /// Batched: `in` holds batch x nonzero bins, `out` batch x n floats.
  void execute(std::span<const c32> in, std::span<float> out, std::size_t batch) const;

  /// Single strided signal: nonzero bins read at `in_stride` (c32 units) ->
  /// n floats written at `out_stride` (float units).  `work` must hold at
  /// least scratch_elems() elements.
  void execute_one(const c32* in, std::ptrdiff_t in_stride, float* out,
                   std::ptrdiff_t out_stride, std::span<c32> work) const;

  /// Scratch elements execute_one needs (padded half-spectrum + retangled
  /// half-size signal + Stockham ping-pong buffer: 3*(n/2)+1, rounded up).
  [[nodiscard]] std::size_t scratch_elems() const noexcept { return 2 * n_; }

  /// Real FLOPs per signal (retangle + half-size complex inverse FFT).
  [[nodiscard]] std::uint64_t flops_per_signal() const noexcept { return flops_; }

 private:
  std::size_t n_;
  std::size_t nonzero_;
  std::span<const c32> wi_;  // conj(W_n^k), k < n/2
  std::uint64_t flops_ = 0;
};

}  // namespace turbofno::fft
