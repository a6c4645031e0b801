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
// and store loops: the nonzero prefix is gathered into n-point scratch, the
// tail zeroed, the SIMD radix-4 Stockham kernel run and only the kept bins
// stored, so no separate memory-copy pass ever materializes the full-length
// intermediate in the caller's buffers.  The butterfly network itself runs
// dense: on a CPU the vectorized autosort kernel beats a pruned
// bit-reversed network by several times.  The op and flop counters still
// report the paper's pruned count (fft/opcount.hpp).
//
// Batches run column-blocked, as the paper's FFT runs many signals per
// thread block: execute_blocked gathers kBlockCols = 8 signals into
// [n][8] rows and runs every Stockham pass across them at full SIMD width
// (stockham_columns; FFTW's "vector loop over howmany"), where execute_one
// would start each signal on sub-lane shuffles.  Every other signal -- the
// g % 8 tail of a batch, and every signal of an n < 16 plan -- runs alone
// through execute_one.  That tail rule is what makes a signal's bits
// independent of how many neighbours it was batched with: a full block
// computes exactly execute_one's arithmetic, a narrower block only agrees
// to rounding.  execute / execute_strided and every fused pipeline's
// complex transforms go through execute_blocked.
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

/// Where a batch of signals lives in a caller buffer: element x of signal
/// c is at ptr[x * row_stride + c * col_stride] (c32 units).  Signals are
/// the columns of [n][g] rows: x-major field rows hold adjacent columns
/// (field_layout), y-major tiles hold each signal as one contiguous row
/// (tile_layout).
struct Layout {
  std::size_t row_stride = 0;
  std::size_t col_stride = 0;
};

inline constexpr Layout field_layout(std::size_t ny) noexcept { return {ny, 1}; }
inline constexpr Layout tile_layout(std::size_t len) noexcept { return {1, len}; }

/// Signals per column block, 8 c32 = one 64-byte line per block row.
/// Fixed: 16 measured 2x slower (its 2 x n x 16 ping-pong spills the L1 at
/// n = 256) and 4 gained nothing.
inline constexpr std::size_t kBlockCols = 8;

/// Shortest plan that runs column-blocked.  Below it execute_one's passes
/// end on the scalar tail, whose unfused complex multiply rounds
/// differently from the blocked passes' vector one.
inline constexpr std::size_t kMinBlockedN = 16;

class FftPlan {
 public:
  explicit FftPlan(PlanDesc desc);

  [[nodiscard]] const PlanDesc& desc() const noexcept { return desc_; }

  /// Densely packed batched transform: `in` holds batch signals of
  /// nonzero_or_n() elements each; `out` receives batch x keep_or_n().
  /// In-place operation (in.data() == out.data()) is supported only when the
  /// output signal is not longer than the input signal.
  void execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const;

  /// Fully general strided execution, parallel over blocks of kBlockCols
  /// signals (strides must be non-negative).
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

  /// Transforms `g` signals, serially on the calling thread: loads the
  /// nonzero_or_n() stored elements of each from `in` (laid out per
  /// `in_l`), writes its keep_or_n() bins to `out` (per `out_l`).  Full
  /// kBlockCols blocks run column-blocked; the g % kBlockCols tail, and
  /// every signal when n < kMinBlockedN, run through execute_one.  Each
  /// signal's output is bitwise execute_one's.  `work` holds at least
  /// blocked_scratch_elems().  A block's signals are all read before any
  /// is written, so execute's in-place case holds here too.
  void execute_blocked(std::size_t g, const c32* in, Layout in_l, c32* out, Layout out_l,
                       std::span<c32> work) const;

  /// Scratch elements execute_blocked needs: one block's [n][8] signal rows
  /// and their ping-pong buffer.
  [[nodiscard]] std::size_t blocked_scratch_elems() const noexcept {
    return 2 * desc_.n * kBlockCols;
  }

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
