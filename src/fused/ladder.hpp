// The optimization ladder of the paper's Table 2:
//
//   PyTorch        the 5-kernel baseline (comparison base)
//   FftOpt      A  built-in truncation / zero padding / pruning, unfused
//   FusedFftGemm B fused forward FFT + CGEMM, separate iFFT
//   FusedGemmIfft C separate forward FFT, fused CGEMM + iFFT epilogue
//   FullyFused   D single fused FFT-CGEMM-iFFT pass
//
// Rows A-D run the same truncated FFT, k-loop CGEMM and zero-padded iFFT
// and differ only in which of the two stage boundaries go through memory,
// so one staged driver per dimensionality serves all four (its fusion
// boundaries are the row; see fused/pipeline1d.hpp and pipeline2d.hpp).
// The PyTorch row is baseline::BaselinePipeline1d/2d (baseline/).  Every
// row, the baseline included, implements SpectralPipeline<Problem>
// directly and refreshes its stage counters on each run, so benches compare
// wall-clock, traffic, and the A100 model on identical terms.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "baseline/problem.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::fused {

/// One FNO layer around a spectral conv (fused/layer.hpp; internal).
template <class T>
struct LayerStep;

/// The five concrete ladder rows, plus Auto: a deterministic heuristic that
/// resolves to one of the concrete rows from the problem shape alone (see
/// auto_variant_1d/2d).  Auto never reaches a pipeline constructor — the
/// factories resolve it first — so results are bitwise-identical to asking
/// for the chosen concrete variant explicitly.
enum class Variant { PyTorch, FftOpt, FusedFftGemm, FusedGemmIfft, FullyFused, Auto };

[[nodiscard]] std::string_view variant_name(Variant v) noexcept;

/// All five Table 2 rows, in ladder order (Auto is a selector, not a row).
inline constexpr Variant kAllVariants[] = {Variant::PyTorch, Variant::FftOpt,
                                           Variant::FusedFftGemm, Variant::FusedGemmIfft,
                                           Variant::FullyFused};

/// The concrete variant Variant::Auto resolves to for a problem shape.
/// Deterministic and shape-only (no runtime probing): the decision weighs
///   - L2 residency of the fused accumulator/middle tiles: when the per-task
///     working set of the fused k-loop outgrows the cache budget, the
///     streaming unfused kernels (FftOpt) win;
///   - the modes ratio: with shallow truncation (modes > n/2) the per-tile
///     truncated forward FFT saves little over the batched plan execution, so
///     only the pad+iFFT epilogue is worth fusing (FusedGemmIfft);
///   - otherwise the fully fused pass wins (FullyFused).
/// The cache budget is 1 MiB.
///
/// `real_input` sizes the working set for the real-spectral (RFFT) lane:
/// the retained spectra shrink to modes/2+1 bins (1D) / modes_x/2+1 x-rows
/// (2D), so a shape whose complex working set spills the budget can still
/// resolve to a fused row when run through run_batched_real.
[[nodiscard]] Variant auto_variant_1d(const baseline::Spectral1dProblem& prob,
                                      bool real_input = false) noexcept;
[[nodiscard]] Variant auto_variant_2d(const baseline::Spectral2dProblem& prob,
                                      bool real_input = false) noexcept;

/// `v` itself for concrete variants; the auto_variant_* choice for Auto.
[[nodiscard]] Variant resolve_variant(Variant v, const baseline::Spectral1dProblem& prob,
                                      bool real_input = false) noexcept;
[[nodiscard]] Variant resolve_variant(Variant v, const baseline::Spectral2dProblem& prob,
                                      bool real_input = false) noexcept;

/// One spectral-convolution pipeline over a problem shape: a Table 2 row
/// (Spectral1dProblem or Spectral2dProblem) with its workspaces, plans and
/// per-run stage counters.  The base holds the problem, the counters and
/// the row name; a row implements the two lanes and reserve().
template <class Problem>
class SpectralPipeline {
 public:
  virtual ~SpectralPipeline() = default;
  /// u [batch, hidden, spatial] -> v [batch, out_dim, spatial], where
  /// spatial is n (1D) or nx * ny (2D, DimY contiguous); w [out_dim,
  /// hidden].  Runs at the current capacity (problem().batch).
  void run(std::span<const c32> u, std::span<const c32> w, std::span<c32> v) {
    run_batched(u, w, v, prob_.batch);
  }
  /// Batched serving entry point: runs on the first `batch` signals.
  /// problem().batch is a capacity *hint*, not a contract: a larger
  /// micro-batch grows the workspaces in place (see reserve) and runs.
  /// Workspaces, plans, and packed weight planes are reused across calls,
  /// so a server can execute variable-size micro-batches on one pipeline
  /// instance.  Each signal's result is bitwise-identical to a batch-1 run
  /// (no cross-request coupling); `batch == 0` is a no-op.  Throws
  /// std::invalid_argument, before growing anything, when u or v cannot
  /// hold `batch` items.
  virtual void run_batched(std::span<const c32> u, std::span<const c32> w, std::span<c32> v,
                           std::size_t batch) = 0;
  /// Real-spectral lane: u and v hold real samples, and the whole spectral
  /// schedule runs on the RFFT half-spectrum of the leading axis: modes/2+1
  /// retained bins (1D), or modes_x/2+1 retained x-rows via the two-for-one
  /// column-pair X stage with the Y axis complex as usual (2D); a
  /// half-length packed complex transform per signal, and a
  /// Hermitian-projecting inverse (torch.fft.irfft semantics).  Requires
  /// n >= 4 (1D) / nx >= 4 (2D).  Shares every workspace with the complex
  /// lane (the half-spectrum is a capacity subset), so the two lanes may
  /// be interleaved on one pipeline instance.
  virtual void run_batched_real(std::span<const float> u, std::span<const c32> w,
                                std::span<float> v, std::size_t batch) = 0;
  /// Grows the workspaces to serve micro-batches up to `batch` without a
  /// reallocation on the run path; problem().batch becomes the high-water
  /// capacity.  Never shrinks.  Growth does not perturb results.
  virtual void reserve(std::size_t batch) = 0;
  /// Packs w into the row's private operand layout (the fused k-loop's A
  /// panels) now, so the runs after it that pass this same w skip the
  /// per-run packing.  The caller must call it again after writing new
  /// values into w.  A run with any other w packs that one for itself (and
  /// the next run with this w packs again).  No-op for rows that pack
  /// nothing.
  virtual void pack_weights(std::span<const c32> /*w*/) {}
  /// One whole FNO layer on the first `batch` items (see LayerStep, in the
  /// internal fused/layer.hpp): the optional lift, this spectral conv plus
  /// the residual, the ReLU, the optional projection.  The default runs
  /// them as separate passes over whole fields, through two hidden fields
  /// (see reserve_layer); a row that fuses them overrides it.
  virtual void run_layer(const LayerStep<c32>& step, std::span<const c32> w, std::size_t batch);
  virtual void run_layer(const LayerStep<float>& step, std::span<const c32> w,
                         std::size_t batch);
  /// Grows what run_layer needs beyond reserve() so a layer that lifts
  /// (`lifts`) or projects (`projects`) runs `batch` items without
  /// reallocation: the default run_layer's lifted-input and pre-projection
  /// fields.  Never shrinks.
  virtual void reserve_layer(std::size_t batch, bool lifts, bool projects);
  /// Elements of w a run reads: out_dim * hidden for every ladder row.
  [[nodiscard]] virtual std::size_t weight_elems() const noexcept {
    return prob_.weight_elems();
  }
  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] const Problem& problem() const noexcept { return prob_; }

 protected:
  /// Validates `prob`.  `name` must outlive the pipeline (a literal or a
  /// variant_name).
  SpectralPipeline(const Problem& prob, std::string_view name, std::string counters_name)
      : prob_(prob), counters_(std::move(counters_name)), name_(name) {
    prob_.validate();
  }

  Problem prob_;
  trace::PipelineCounters counters_;

 private:
  // The default run_layer on either lane.
  template <class T>
  void run_layer_unfused(const LayerStep<T>& step, std::span<const c32> w, std::size_t batch);

  std::string_view name_;
  // The default run_layer's lifted input and pre-projection output fields
  // (the real lane uses float views), grown by reserve_layer or on first
  // use.
  AlignedBuffer<c32> lifted_;
  AlignedBuffer<c32> mixed_out_;
};

extern template class SpectralPipeline<baseline::Spectral1dProblem>;
extern template class SpectralPipeline<baseline::Spectral2dProblem>;
using SpectralPipeline1d = SpectralPipeline<baseline::Spectral1dProblem>;
using SpectralPipeline2d = SpectralPipeline<baseline::Spectral2dProblem>;

/// Pipeline factories.  Variant::Auto is resolved (resolve_variant) before
/// construction, so the returned pipeline is always a concrete row and its
/// name() reports the resolved choice.  `real_input` only steers that Auto
/// resolution (half-spectrum working set); every returned pipeline serves
/// both the complex and the real lane.
std::unique_ptr<SpectralPipeline1d> make_pipeline1d(Variant v,
                                                    const baseline::Spectral1dProblem& prob,
                                                    bool real_input = false);
std::unique_ptr<SpectralPipeline2d> make_pipeline2d(Variant v,
                                                    const baseline::Spectral2dProblem& prob,
                                                    bool real_input = false);

}  // namespace turbofno::fused
