// The staged ladder driver for the four TurboFNO rows (Table 2 A-D), 2D.
//
// 2D structure (Figure 4): the first FFT stage runs along DimX with
// truncation to modes_x rows; the middle — FFT along DimY, CGEMM over the
// hidden dim, iFFT along DimY — is the 1D chain of fused/pipeline1d.hpp
// applied to every kept x-row, and is where the row's Fusion applies; the
// last stage is the zero-padded inverse FFT along DimX.  A run is
//
//   fft-x-trunc -> [fft-y-trunc] -> k-loop stage -> [ifft-y-pad] -> ifft-x-pad
//
// with the bracketed stages present only while their boundary is unfused.
//
// Every row and both lanes share one schedule: the X stage streams
// y-major [slab, mx] tiles (fft::fft2d_x_stage_to_tiles, or the real lane's
// two-for-one column-pair stage keeping modes_x/2+1 x-rows) into a
// cache-sized staging block covering a small group of batch elements; the
// Y middle consumes the tiles and writes its output tiles back the same
// way, and the inverse X stage drains them.  The full [B*K*mx*ny]
// intermediate is never written or re-read.  Every Y transform runs
// column-blocked (fft::FftPlan::execute_blocked): a block is 8 adjacent
// x-rows of one channel, i.e. 8 adjacent staging columns, which the fused
// k-loop tasks and the unfused Y passes read and write in place.
//
// run_layer runs a whole FNO layer (fused/layer.hpp) in the same schedule,
// so the field is read once and written once per layer.  The X stages are
// the layer's only full-resolution stages, and there its pointwise parts
// ride on hooks of the X-stage tasks (fft::XSlabHook): a task covers one
// item's channels over one column slab (64 bytes of each field row).  The
// forward stage's gather computes the first layer's input slab from the
// model input through the lift; the inverse stage leaves each [O][nx][W]
// output slab in the task's arena, where the epilogue adds the residual of
// the layer input's slab (recomputed through the lift on the first
// layer), applies the ReLU (all but the last layer) and writes the slab,
// or its projection on the last layer, to the output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "baseline/problem.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline1d.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// Overrides the batch-group size of the middle schedule (number of batch
/// elements staged between the X stages at once).  `g == 0` restores the
/// default policy (sized so the staging tiles fit a cache budget).  A test
/// hook: small groups exercise group-boundary handling.
void set_fused_mid_group(std::size_t g) noexcept;

/// The active group-size override (0 = default policy).
[[nodiscard]] std::size_t fused_mid_group_override() noexcept;

class LadderPipeline2d final : public SpectralPipeline2d {
 public:
  LadderPipeline2d(Variant v, baseline::Spectral2dProblem prob);

  void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                   std::size_t batch) override;
  void run_batched_real(std::span<const float> u, std::span<const c32> w, std::span<float> v,
                        std::size_t batch) override;
  /// Elastic capacity: problem().batch is a hint, not a contract.  Bumps
  /// the high-water capacity and pre-sizes the staging tiles (and the
  /// unfused boundaries' group spectra) so a batch this large runs without
  /// reallocating; the run itself still lazily grows them, grow-only, if
  /// the group override changes afterwards.
  void reserve(std::size_t batch) override;
  void pack_weights(std::span<const c32> w) override;
  /// The whole layer in one pass over the field per lane: the forward X
  /// stage gathers the lifted input slab by slab (first layer), and the
  /// inverse X stage's epilogue adds the residual, applies the ReLU and
  /// projects (last layer) each output slab in its task's arena, then
  /// writes it out.  No hidden field but the layer's output is written.
  void run_layer(const LayerStep<c32>& step, std::span<const c32> w,
                 std::size_t batch) override;
  void run_layer(const LayerStep<float>& step, std::span<const c32> w,
                 std::size_t batch) override;
  /// The fused layer keeps its slabs in the tasks' arenas: nothing to grow.
  void reserve_layer(std::size_t, bool, bool) override {}

 private:
  /// View of one batch group's y-major staging tiles.  Rows are addressed
  /// as (bl, channel, x) with bl local to the group; a row's y samples are
  /// `mx` apart and consecutive x rows are adjacent.  The middle is written
  /// once against this view and serves both spectral lanes.
  struct MidView {
    const c32* in = nullptr;  // post-X spectra, group base
    c32* out = nullptr;       // pre-inverse-X spectra, group base
    std::size_t count = 0;    // batch elements in the group (bl below is group-local)
    std::size_t mx = 0;       // x-rows per channel (modes_x or real_modes_x())
    std::size_t chan = 0;     // distance between channels (ny * mx)
    std::size_t in_b = 0;     // distance between batch elements
    std::size_t out_b = 0;

    [[nodiscard]] const c32* in_row(std::size_t bl, std::size_t k, std::size_t x) const noexcept {
      return in + bl * in_b + k * chan + x;
    }
    [[nodiscard]] c32* out_row(std::size_t bl, std::size_t o, std::size_t x) const noexcept {
      return out + bl * out_b + o * chan + x;
    }
  };

  // One run on either lane: T is the sample type (c32 or float).  With a
  // `layer`, u and v are its in and out and the X stages run its pointwise
  // parts; without one, the run is the spectral conv alone.
  template <class T>
  void run_lane(std::span<const T> u, std::span<const c32> w, std::span<T> v, std::size_t batch,
                const LayerStep<T>* layer);

  /// One group's Y chain: the unfused boundaries as separate passes around
  /// the k-loop stage.  Accumulates stage timings only; bytes and FLOPs are
  /// closed-form per run (account_chain).
  template <bool FwdFused, bool InvFused>
  void middle_group(const MidView& mv, std::span<const c32> w);

  /// The fused k-loop over one group: one task per (batch, x-block), on
  /// the W panels run_lane packed.
  template <bool FwdFused, bool InvFused>
  void kloop_group(const MidView& mv);

  /// X-rows the real lane keeps: modes_x/2+1 RFFT bins (<= modes_x, so
  /// every MX-sized workspace covers the real layout).
  [[nodiscard]] std::size_t real_modes_x() const noexcept { return prob_.modes_x / 2 + 1; }

  /// Batch elements staged per middle-stage group: the override when one is
  /// set, otherwise as many as keep the in+out staging tiles within a cache
  /// budget (always >= 1).
  [[nodiscard]] std::size_t mid_group(std::size_t batch) const noexcept;

  /// The unfused Y passes over one group: one plan.execute_blocked per
  /// (bl, channel) and block of kBlockCols x-rows.  y_forward_rows reads view rows into the dense
  /// [group, channels, mx, my] spectra block; y_inverse_rows reads that
  /// block's my-element rows back out into view rows.
  static void y_forward_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             c32* spectra);
  static void y_inverse_rows(const fft::FftPlan& plan, const MidView& mv,
                             std::size_t channels, std::size_t mx, std::size_t my,
                             const c32* spectra);

  /// Grow-only sizing of every group-scaled buffer: the staging tiles and
  /// the unfused boundaries' spectra.  Single authority shared by reserve()
  /// and run_groups() so the two can never disagree on a formula.
  void ensure_mid_buffers(std::size_t group);

  /// The group loop: per group, x_forward(b0, g, dst) fills the input
  /// staging tiles, `middle` maps them to the output tiles, and
  /// x_inverse(b0, g, src) drains those.  `mx` is the tiles' x-extent.
  using XForward = std::function<void(std::size_t, std::size_t, const fft::XStageTileDst&)>;
  using XInverse = std::function<void(std::size_t, std::size_t, const fft::XStageTileSrc&)>;
  void run_groups(std::size_t batch, std::size_t mx, std::size_t group,
                  const XForward& x_forward,
                  const std::function<void(const MidView&)>& middle,
                  const XInverse& x_inverse);

  Fusion fusion_;
  // X-stage plans come from the process-wide cache so concurrent pipelines
  // (one per serving-layer model) share them.
  std::shared_ptr<const fft::FftPlan> fft_x_trunc_;
  std::shared_ptr<const fft::FftPlan> ifft_x_pad_;
  std::shared_ptr<const fft::FftPlan> fwd_y_;  // truncated FFT along Y feeding the k-loop
  std::shared_ptr<const fft::FftPlan> inv_y_;  // zero-padded iFFT along Y (the k-loop epilogue)
  // The real lane's X stages run full-length nx-point transforms.
  std::shared_ptr<const fft::FftPlan> real_x_fwd_;
  std::shared_ptr<const fft::FftPlan> real_x_inv_;
  // FLOPs per field of either real X stage (fft::rfft2d_x_stage_flops).
  std::uint64_t real_x_flops_;
  KLoopGemm kloop_;
  // Staging tiles, lazily sized by run_groups: one batch group in y-major
  // order.
  AlignedBuffer<c32> staging_in_;   // [bg, K, ny, mx] after the X stage
  AlignedBuffer<c32> staging_out_;  // [bg, O, ny, mx] before the X inverse
  AlignedBuffer<c32> freq_;         // [bg, K, mx, my], unfused forward only
  AlignedBuffer<c32> mixed_;        // [bg, O, mx, my], unfused inverse only
};

}  // namespace turbofno::fused
