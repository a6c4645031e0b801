// Batched 1D FFT plans with built-in truncation and zero padding.
//
// This is the public FFT API of TurboFNO.  A plan is described by four
// quantities (mirroring the paper's built-in filtering, Section 3.3):
//
//   n        transform length (power of two)
//   dir      Forward | Inverse
//   keep     outputs produced: the first `keep` natural-order bins
//            ("truncation"; keep == n means a full transform)
//   nonzero  stored input prefix: elements [nonzero, n) are implicit zeros
//            ("zero padding"; nonzero == n means a dense input)
//
// Unlike cuFFT (which has no native filtering; the paper's Section 1
// limitation #2), truncation and padding here live in the plan's own load
// and store loops: execute_one gathers the nonzero prefix into an n-point
// scratch signal, zeroes the tail, runs the SIMD radix-4 Stockham kernel
// and stores only the kept bins, so no separate memory-copy pass ever
// materializes the full-length intermediate in the caller's buffers.  The
// butterfly network itself runs dense: on a CPU the vectorized autosort
// kernel beats a pruned bit-reversed network by several times.  The op and
// flop counters still report the paper's pruned count (fft/opcount.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::fft {

enum class Direction { Forward, Inverse };

struct PlanDesc {
  std::size_t n = 0;
  Direction dir = Direction::Forward;
  std::size_t keep = 0;     // 0 => n
  std::size_t nonzero = 0;  // 0 => n
  bool scale_inverse = true;

  [[nodiscard]] std::size_t keep_or_n() const noexcept { return keep == 0 ? n : keep; }
  [[nodiscard]] std::size_t nonzero_or_n() const noexcept { return nonzero == 0 ? n : nonzero; }
};

/// Memory layout of a batched execution.  Element strides are in c32 units;
/// batch strides of 0 mean "densely packed" (nonzero / keep elements apart).
struct ExecLayout {
  std::ptrdiff_t in_elem_stride = 1;
  std::ptrdiff_t in_batch_stride = 0;
  std::ptrdiff_t out_elem_stride = 1;
  std::ptrdiff_t out_batch_stride = 0;
};

class FftPlan {
 public:
  explicit FftPlan(PlanDesc desc);

  [[nodiscard]] const PlanDesc& desc() const noexcept { return desc_; }

  /// Densely packed batched transform: `in` holds batch signals of
  /// nonzero_or_n() elements each; `out` receives batch x keep_or_n().
  /// In-place operation (in.data() == out.data()) is supported only when the
  /// output signal is not longer than the input signal.
  void execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const;

  /// Fully general strided execution (used for along-X transforms in 2D and
  /// the hidden-dimension-aligned FFT variant of the fused kernel).
  void execute_strided(const c32* in, c32* out, std::size_t batch, const ExecLayout& layout) const;

  /// Single-signal transform into/out of a caller-provided n-element scratch
  /// buffer; exposed so fused pipelines can keep data tile-resident.
  /// Loads `nonzero` elements from `in` (stride in_elem_stride), transforms in
  /// `work` (size >= n), writes keep bins to `out` (stride out_elem_stride).
  void execute_one(const c32* in, std::ptrdiff_t in_elem_stride, c32* out,
                   std::ptrdiff_t out_elem_stride, std::span<c32> work) const;

  /// Scratch elements execute_one needs (the n-point signal plus the
  /// Stockham ping-pong buffer); callers sizing arena requests use this
  /// instead of hard-coding 2 * n.
  [[nodiscard]] std::size_t scratch_elems() const noexcept { return 2 * desc_.n; }

  /// Unit butterfly ops per signal of the paper's pruned network under the
  /// Figure-5 counting convention.
  [[nodiscard]] std::uint64_t unit_ops_per_signal() const noexcept { return unit_ops_; }
  /// Real FLOPs per signal of the paper's pruned network.
  [[nodiscard]] std::uint64_t flops_per_signal() const noexcept { return flops_; }
  /// Bytes read / written from the caller's buffers per signal.
  [[nodiscard]] std::uint64_t bytes_read_per_signal() const noexcept;
  [[nodiscard]] std::uint64_t bytes_written_per_signal() const noexcept;

  /// True when any filtering is active (keep < n or nonzero < n).
  [[nodiscard]] bool pruned() const noexcept { return pruned_; }

 private:
  PlanDesc desc_;
  bool pruned_ = false;
  std::uint64_t unit_ops_ = 0;
  std::uint64_t flops_ = 0;
};

}  // namespace turbofno::fft
