// Spectral convolution layers — the FNO building block the whole paper
// optimizes (Figure 1(a), steps 1-5).
//
// forward(): v = iFFT( pad( W x trunc( FFT(u) ) ) ), with W applied along
// the hidden dimension.  The backend selects which pipeline executes it;
// the five rows are one bitwise group on every build (tests assert
// same_bits).  One layer template serves both dimensionalities: it owns the
// weights and the pipelines, and every forward is one pipeline run.
#pragma once

#include <concepts>
#include <memory>
#include <span>
#include <type_traits>

#include "baseline/problem.hpp"
#include "core/config.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::core {

template <class Config>
class Fno;

/// A spectral layer over a problem shape: baseline::Spectral1dProblem
/// (signals [n], `modes` kept bins) or Spectral2dProblem (fields [nx, ny],
/// modes_x x modes_y kept).
template <class Problem>
class SpectralConv {
 public:
  using Pipeline = fused::SpectralPipeline<Problem>;

  /// hidden -> out_dim mixing over the problem's kept modes, with capacity
  /// for prob.batch items.  Weights are initialized Glorot-style from
  /// `seed`.  WeightScheme::PerMode (1D only; the 2D layer throws
  /// std::invalid_argument) runs canonical FNO's per-mode weights on a
  /// private unfused row whatever the backend.
  SpectralConv(const Problem& prob, Backend backend, WeightScheme scheme = WeightScheme::Shared,
               unsigned seed = 1u);
  /// 1D: `modes` of `n` frequencies for signals of `batch` capacity.
  SpectralConv(std::size_t batch, std::size_t hidden, std::size_t out_dim, std::size_t n,
               std::size_t modes, Backend backend, WeightScheme scheme = WeightScheme::Shared,
               unsigned seed = 1u)
    requires std::same_as<Problem, baseline::Spectral1dProblem>
      : SpectralConv(Problem{batch, hidden, out_dim, n, modes}, backend, scheme, seed) {}
  /// 2D: modes_x x modes_y of nx x ny frequencies.
  SpectralConv(std::size_t batch, std::size_t hidden, std::size_t out_dim, std::size_t nx,
               std::size_t ny, std::size_t modes_x, std::size_t modes_y, Backend backend,
               WeightScheme scheme = WeightScheme::Shared, unsigned seed = 1u)
    requires std::same_as<Problem, baseline::Spectral2dProblem>
      : SpectralConv(Problem{batch, hidden, out_dim, nx, ny, modes_x, modes_y}, backend, scheme,
                     seed) {}
  ~SpectralConv();
  SpectralConv(SpectralConv&&) noexcept;
  SpectralConv& operator=(SpectralConv&&) noexcept;

  /// u [batch, hidden, spatial] -> v [batch, out_dim, spatial] at the
  /// current capacity; spatial is n, or nx * ny (DimY contiguous).
  void forward(std::span<const c32> u, std::span<c32> v);
  /// Micro-batch variant: first `batch` items; a batch beyond the current
  /// capacity grows the workspaces in place (elastic capacity).
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch);
  /// Real-input forward: u/v hold real samples and the spectral schedule
  /// runs on the RFFT half-spectrum of the leading axis (modes/2+1 retained
  /// bins in 1D, modes_x/2+1 retained x-rows in 2D; torch.fft.rfft/irfft
  /// semantics).  Requires n >= 4 / nx >= 4.  This is the only real-input
  /// route; tests/real_pipeline_test.cpp checks it against a direct
  /// half-spectrum DFT.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch);
  /// Grows the layer's pipelines to serve micro-batches up to `batch`
  /// without reallocation.  Never shrinks.
  void reserve(std::size_t batch);

  /// Mutable weight access is weight-invalidating (packed/split planes a
  /// caller derived from the old values must be re-derived); prefer the
  /// const overload for reads.  Shared: [out, hidden].  PerMode: [modes,
  /// out, hidden].  The layer packs its weights for its pipelines once,
  /// when it is built; this overload marks that pack stale, and the next
  /// forward repacks.  Write through the span before that forward.
  [[nodiscard]] std::span<c32> weights() noexcept {
    packed_ = false;
    return weights_.span();
  }
  [[nodiscard]] std::span<const c32> weights() const noexcept { return weights_.span(); }
  /// The shape, with the complex lane's high-water capacity as batch.
  [[nodiscard]] const Problem& problem() const noexcept { return pipeline_->problem(); }
  /// The complex lane's stage counters of the last forward.
  [[nodiscard]] const trace::PipelineCounters& counters() const noexcept {
    return pipeline_->counters();
  }
  [[nodiscard]] WeightScheme scheme() const noexcept { return scheme_; }

 private:
  template <class Config>
  friend class Fno;

  /// The pipeline serving the real lane: `pipeline_` when Auto resolves to
  /// the same row for both lanes, else a lazily built real-tuned sibling.
  Pipeline& real_pipeline();
  /// Repacks the weights for the pipelines if weights() marked them stale.
  void ensure_packed();
  /// Grows what run_layer needs for a layer that lifts or projects `batch`
  /// items (SpectralPipeline::reserve_layer), for Fno::reserve.
  void reserve_layer(std::size_t batch, bool lifts, bool projects) {
    pipeline_->reserve_layer(batch, lifts, projects);
    if (pipeline_real_) pipeline_real_->reserve_layer(batch, lifts, projects);
  }
  /// One whole model layer around this conv (fused/layer.hpp), for Fno:
  /// T is c32 (complex lane) or float (real lane).
  template <class T>
  void run_layer(const fused::LayerStep<T>& step, std::size_t batch) {
    Pipeline& p = std::is_same_v<T, float> ? real_pipeline() : *pipeline_;
    ensure_packed();
    p.run_layer(step, weights_.span(), batch);
  }

  Backend backend_;
  WeightScheme scheme_;
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<Pipeline> pipeline_real_;  // lazy: real-lane Auto sibling
  AlignedBuffer<c32> weights_;
  bool packed_ = false;  // the pipelines hold weights_' current pack
};

extern template class SpectralConv<baseline::Spectral1dProblem>;
extern template class SpectralConv<baseline::Spectral2dProblem>;
using SpectralConv1d = SpectralConv<baseline::Spectral1dProblem>;
using SpectralConv2d = SpectralConv<baseline::Spectral2dProblem>;

/// Glorot-uniform complex init used by every layer (deterministic).
void init_weights(std::span<c32> w, std::size_t fan_in, std::size_t fan_out, unsigned seed);

}  // namespace turbofno::core
