// The four TurboFNO 2D pipeline variants (ladder stages A-D).
//
// 2D structure (Figure 4): the first FFT stage runs along DimX with
// truncation to modes_x rows; the middle of the pipeline — FFT along DimY,
// CGEMM over the hidden dim, iFFT along DimY — is where fusion applies; the
// last stage is the zero-padded inverse FFT along DimX.
//
// Two middle-stage schedules share every variant's arithmetic:
//
//   fused middle (default, TURBOFNO_FUSED_MID=1): the X stage streams
//   y-major [slab, modes_x] tiles (fft::fft2d_x_stage_to_tiles) into a
//   cache-sized staging block covering a small group of batch elements;
//   the Y/CGEMM middle consumes the tiles with strided gathers and writes
//   its output tiles back the same way, and the inverse X stage drains
//   them (fft::fft2d_x_stage_from_tiles).  The full [B*K*mx*ny]
//   intermediate is never written or re-read, and both X-stage transposes
//   next to it disappear.
//
//   unfused middle (TURBOFNO_FUSED_MID=0): the PR-3 schedule — the X stage
//   materializes the x-major mid_in_/mid_out_ intermediates for the whole
//   batch.  Kept for A/B benchmarking; bitwise-identical results.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "baseline/problem.hpp"
#include "fft/plan.hpp"
#include "fused/fft_variant.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// Overrides the batch-group size of the fused middle schedule (number of
/// batch elements staged between the X stages at once).  `g == 0` restores
/// the default policy (sized so the staging tiles fit a cache budget).
/// Also settable via TURBOFNO_FUSED_MID_GROUP (the API override wins).
/// Tests use small groups to exercise group-boundary handling.
void set_fused_mid_group(std::size_t g) noexcept;

/// The active group-size override (0 = default policy).
[[nodiscard]] std::size_t fused_mid_group_override() noexcept;

/// Common substrate for the 2D variants: the along-X truncated/padded
/// stages, the middle-stage scheduling (fused tiles vs materialized
/// intermediate), and the buffers every variant needs.
class Pipeline2dBase {
 public:
  explicit Pipeline2dBase(baseline::Spectral2dProblem prob, const char* counters_name);
  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const baseline::Spectral2dProblem& problem() const noexcept { return prob_; }

  /// Elastic capacity: problem().batch is a hint, not a contract.  Bumps
  /// the high-water capacity and pre-sizes the schedule buffers of the
  /// *currently active* middle schedule so a batch this large runs without
  /// reallocating (the run itself still lazily grows buffers, grow-only,
  /// if the schedule is flipped afterwards).  Variants with their own
  /// batch-scaled buffers shadow this and pre-size those too.
  void reserve(std::size_t batch);

 protected:
  /// Strided view of one batch group's middle-stage operands.  Rows are
  /// addressed as (bl, channel, x) with bl local to the group; `*_y` is the
  /// distance between a row's y samples (1 on the x-major unfused layout,
  /// modes_x on the y-major fused tiles).  Variant middle stages are
  /// written once against this view and run identically — bitwise — under
  /// both schedules.
  struct MidView {
    const c32* in = nullptr;  // post-X spectra, group base
    c32* out = nullptr;       // pre-inverse-X spectra, group base
    std::size_t count = 0;    // batch elements in the group (bl below is group-local)
    std::ptrdiff_t in_y = 1;
    std::ptrdiff_t out_y = 1;
    std::size_t in_x = 0;   // distance between consecutive x rows
    std::size_t out_x = 0;
    std::size_t chan = 0;   // distance between channels (modes_x * ny, both layouts)
    std::size_t in_b = 0;   // distance between batch elements
    std::size_t out_b = 0;

    [[nodiscard]] const c32* in_row(std::size_t bl, std::size_t k, std::size_t x) const noexcept {
      return in + bl * in_b + k * chan + x * in_x;
    }
    [[nodiscard]] c32* out_row(std::size_t bl, std::size_t o, std::size_t x) const noexcept {
      return out + bl * out_b + o * chan + x * out_x;
    }
  };

  /// Runs X stage -> middle -> inverse X stage over `batch` elements.
  /// `fused_mid` selects the schedule and `group` the fused batch-group
  /// size (both sampled once by the caller — from fused_mid_enabled() and
  /// mid_group() — so one run never mixes layouts or disagrees with the
  /// caller's group-sized buffers; `group` is ignored on the unfused
  /// schedule).  `middle` is invoked once per batch group (exactly once,
  /// covering everything, on the unfused schedule) and must only
  /// accumulate stage *timings* — byte/FLOP counters are closed-form per
  /// run and belong to the caller.
  void run_mid(std::span<const c32> u, std::span<c32> v, std::size_t batch, bool fused_mid,
               std::size_t group, const std::function<void(const MidView&)>& middle);

  /// Real-spectral twin of run_mid: the X stages are the two-for-one R2C /
  /// C2R column-pair stages (fft/real2d.hpp) keeping real_modes_x() x-rows,
  /// and the MidView strides are laid out for that narrower extent.  The
  /// same `middle` callables work on both lanes — they read every extent
  /// from the view (plus the mx the variant passes alongside).
  void run_mid_real(std::span<const float> u, std::span<float> v, std::size_t batch,
                    bool fused_mid, std::size_t group,
                    const std::function<void(const MidView&)>& middle);

  /// X-rows the real lane keeps: modes_x/2+1 RFFT bins (<= modes_x, so
  /// every MX-sized workspace covers the real layout).
  [[nodiscard]] std::size_t real_modes_x() const noexcept { return prob_.modes_x / 2 + 1; }

  /// Batch elements staged per fused-middle group: the override when one is
  /// set, otherwise as many as keep the in+out staging tiles within a cache
  /// budget (always >= 1).
  [[nodiscard]] std::size_t mid_group(std::size_t batch) const noexcept;

  /// Blocked tile I/O of the fused middle loops (single-sourced so the
  /// layout-sensitive transposes exist once): gather_xblock moves a k-tile's
  /// [ny, xc] y-major staging columns into contiguous gbuf rows (channel kk
  /// at gbuf + kk*xb*ny, row xi at + xi*ny); scatter_xblock moves xc
  /// contiguous sbuf rows back into output channel o's staging columns.
  static void gather_xblock(const MidView& mv, std::size_t bl, std::size_t k0,
                            std::size_t kc, std::size_t x0, std::size_t xc, std::size_t xb,
                            std::size_t ny, c32* gbuf) noexcept;
  static void scatter_xblock(const MidView& mv, std::size_t bl, std::size_t o,
                             std::size_t x0, std::size_t xc, std::size_t ny,
                             const c32* sbuf) noexcept;

  /// The unfused Y-stage passes over one group, single-sourced for the
  /// A/B/C variants: one plan.execute_one per (bl, channel, x) row.
  /// y_forward_rows reads view rows into the dense
  /// [group, channels, mx, my] spectra block; y_inverse_rows reads that
  /// block's my-element rows back out into view rows.
  static void y_forward_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             c32* spectra);
  static void y_inverse_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             const c32* spectra);

  /// Unfused stage 1: truncated forward FFT along X: u [B,K,nx,ny] -> dst
  /// [B,K,mx,ny].  Writes only modes_x/nx of the rows (Fig 4's saving).
  void run_fft_x_trunc(std::span<const c32> u, std::span<c32> dst, std::size_t batch);
  /// Unfused final stage: zero-padded inverse FFT along X: src [B,O,mx,ny]
  /// -> v [B,O,nx,ny].
  void run_ifft_x_pad(std::span<const c32> src, std::span<c32> v, std::size_t batch);

  /// Throws when the caller's buffers cannot hold `batch` fields (capacity
  /// itself is elastic; see reserve).
  void check_spans(std::span<const c32> u, std::span<c32> v, std::size_t batch) const;
  void check_spans_real(std::span<const float> u, std::span<float> v, std::size_t batch) const;

  /// Grow-only (re)allocation for the lazily sized schedule buffers.
  static void ensure(AlignedBuffer<c32>& buf, std::size_t elems) {
    if (buf.size() < elems) buf.resize(elems);
  }

  /// Single sizing authority for the middle-schedule buffers, shared by
  /// reserve() and run_mid() so the two can never disagree on a formula.
  void ensure_mid_buffers(std::size_t batch, bool fused_mid, std::size_t group);

  baseline::Spectral2dProblem prob_;
  // X-stage plans come from the process-wide cache so concurrent pipelines
  // (one per serving-layer model) share them.
  std::shared_ptr<const fft::FftPlan> fft_x_trunc_;
  std::shared_ptr<const fft::FftPlan> ifft_x_pad_;
  KLoopFft fwd_y_;      // truncated FFT along Y feeding the GEMM k-loop
  EpilogueIfft inv_y_;  // zero-padded iFFT along Y (CGEMM epilogue)
  // Schedule buffers, lazily sized by run_mid for the schedule in use:
  // the unfused intermediates cover the whole batch; the fused staging
  // tiles cover one batch group in y-major order.
  AlignedBuffer<c32> mid_in_;       // unfused [B, K, mx, ny] after the X stage
  AlignedBuffer<c32> mid_out_;      // unfused [B, O, mx, ny] before the X inverse
  AlignedBuffer<c32> staging_in_;   // fused [bg, K, ny, mx] y-major tiles
  AlignedBuffer<c32> staging_out_;  // fused [bg, O, ny, mx]
  trace::PipelineCounters counters_;
};

/// Stage A: every kernel truncated/zero-padded, nothing fused (5 launches).
class FftOptPipeline2d : public Pipeline2dBase {
 public:
  explicit FftOptPipeline2d(baseline::Spectral2dProblem prob);
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes freq_/mixed_

 private:
  void ensure_variant_buffers(std::size_t gcap);  // single sizing authority
  // One group's Y-FFT -> CGEMM -> Y-iFFT middle, shared by both spectral
  // lanes: `mx` is the x-extent of the group's spectra (modes_x on the
  // complex lane, real_modes_x() on the real lane).
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> freq_;   // [group, K, mx, my]
  AlignedBuffer<c32> mixed_;  // [group, O, mx, my]
};

/// Stage B: FFT-Y fused with CGEMM; iFFT-Y separate (4 launches).
class FusedFftGemmPipeline2d : public Pipeline2dBase {
 public:
  explicit FusedFftGemmPipeline2d(baseline::Spectral2dProblem prob);
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes mixed_

 private:
  void ensure_variant_buffers(std::size_t gcap);
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> mixed_;  // [group, O, mx, my]
};

/// Stage C: FFT-Y separate; CGEMM fused with the iFFT-Y epilogue.
class FusedGemmIfftPipeline2d : public Pipeline2dBase {
 public:
  explicit FusedGemmIfftPipeline2d(baseline::Spectral2dProblem prob);
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);
  void reserve(std::size_t batch);  // also pre-sizes freq_

 private:
  void ensure_variant_buffers(std::size_t gcap);
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);

  AlignedBuffer<c32> freq_;  // [group, K, mx, my]
};

/// Stage D: fused FFT-Y + CGEMM + iFFT-Y between the two X stages
/// (3 launches).
class FullyFusedPipeline2d : public Pipeline2dBase {
 public:
  explicit FullyFusedPipeline2d(baseline::Spectral2dProblem prob);
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v);
  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch);
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch);

 private:
  void middle_group(const MidView& mv, std::span<const c32> w, std::size_t mx);
};

}  // namespace turbofno::fused
