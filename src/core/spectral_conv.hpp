// Spectral convolution layers — the FNO building block the whole paper
// optimizes (Figure 1(a), steps 1-5).
//
// forward(): v = iFFT( pad( W x trunc( FFT(u) ) ) ), with W applied along
// the hidden dimension.  The backend selects which pipeline executes it;
// all backends are bit-compatible up to float rounding (tests assert this).
#pragma once

#include <memory>
#include <random>
#include <span>

#include "baseline/problem.hpp"
#include "core/config.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"
#include "trace/counters.hpp"

namespace turbofno::core {

class SpectralConv1d {
 public:
  /// hidden -> out_dim mixing over `modes` of `n` frequencies for signals of
  /// a fixed batch size.  Weights are initialized Glorot-style from `seed`.
  SpectralConv1d(std::size_t batch, std::size_t hidden, std::size_t out_dim, std::size_t n,
                 std::size_t modes, Backend backend, WeightScheme scheme = WeightScheme::Shared,
                 unsigned seed = 1u);
  ~SpectralConv1d();
  SpectralConv1d(SpectralConv1d&&) noexcept;
  SpectralConv1d& operator=(SpectralConv1d&&) noexcept;

  /// u [batch, hidden, n] -> v [batch, out_dim, n].
  void forward(std::span<const c32> u, std::span<c32> v);
  /// Micro-batch variant: first `batch` signals; a batch beyond the current
  /// capacity grows the workspaces in place (elastic capacity).
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch);
  /// Real-input forward: u/v hold real samples and the spectral schedule
  /// runs on the RFFT half-spectrum (modes/2+1 retained bins,
  /// torch.fft.rfft/irfft semantics).  Requires n >= 4.  This is the only
  /// real-input route; tests/real_pipeline_test.cpp checks it against a
  /// direct half-spectrum DFT.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch);
  /// Grows the layer (pipeline workspaces / per-mode buffers) to serve
  /// micro-batches up to `batch` without reallocation.  Never shrinks.
  void reserve(std::size_t batch);

  /// Mutable weight access is weight-invalidating (packed/split planes a
  /// caller derived from the old values must be re-derived); prefer the
  /// const overload for reads.
  [[nodiscard]] std::span<c32> weights() noexcept { return weights_.span(); }
  [[nodiscard]] std::span<const c32> weights() const noexcept { return weights_.span(); }
  [[nodiscard]] const baseline::Spectral1dProblem& problem() const noexcept { return prob_; }
  [[nodiscard]] const trace::PipelineCounters& counters() const;
  [[nodiscard]] WeightScheme scheme() const noexcept { return scheme_; }

 private:
  /// The PerMode scheme on either lane: T is the sample type (c32 or float).
  template <class T>
  void forward_per_mode(std::span<const T> u, std::span<T> v, std::size_t batch);
  /// The pipeline serving the real lane: `pipeline_` when Auto resolves to
  /// the same row for both lanes, else a lazily built real-tuned sibling.
  fused::SpectralPipeline1d& real_pipeline();

  baseline::Spectral1dProblem prob_;
  WeightScheme scheme_;
  Backend backend_ = Backend::FullyFused;
  // Shared: [out, hidden].  PerMode: [modes, out, hidden].
  AlignedBuffer<c32> weights_;
  std::unique_ptr<fused::SpectralPipeline1d> pipeline_;
  std::unique_ptr<fused::SpectralPipeline1d> pipeline_real_;  // lazy: real-lane Auto sibling
  // PerMode path state.
  AlignedBuffer<c32> freq_;
  AlignedBuffer<c32> mixed_;
  trace::PipelineCounters permode_counters_{"per-mode-1d"};
};

class SpectralConv2d {
 public:
  SpectralConv2d(std::size_t batch, std::size_t hidden, std::size_t out_dim, std::size_t nx,
                 std::size_t ny, std::size_t modes_x, std::size_t modes_y, Backend backend,
                 WeightScheme scheme = WeightScheme::Shared, unsigned seed = 1u);
  ~SpectralConv2d();
  SpectralConv2d(SpectralConv2d&&) noexcept;
  SpectralConv2d& operator=(SpectralConv2d&&) noexcept;

  /// u [batch, hidden, nx, ny] -> v [batch, out_dim, nx, ny].
  void forward(std::span<const c32> u, std::span<c32> v);
  /// Micro-batch variant: first `batch` fields; elastic capacity growth as
  /// in SpectralConv1d.
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch);
  /// Real-input forward on the RFFT half-spectrum: modes_x/2+1 retained
  /// x-rows (the X axis carries the real transform), modes_y unchanged.
  /// Requires nx >= 4.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch);
  /// Elastic capacity growth; see SpectralConv1d::reserve.
  void reserve(std::size_t batch);

  /// Mutable weight access is weight-invalidating; see SpectralConv1d.
  [[nodiscard]] std::span<c32> weights() noexcept { return weights_.span(); }
  [[nodiscard]] std::span<const c32> weights() const noexcept { return weights_.span(); }
  [[nodiscard]] const baseline::Spectral2dProblem& problem() const noexcept { return prob_; }
  [[nodiscard]] const trace::PipelineCounters& counters() const;

 private:
  fused::SpectralPipeline2d& real_pipeline();

  baseline::Spectral2dProblem prob_;
  WeightScheme scheme_;
  Backend backend_ = Backend::FullyFused;
  AlignedBuffer<c32> weights_;
  std::unique_ptr<fused::SpectralPipeline2d> pipeline_;
  std::unique_ptr<fused::SpectralPipeline2d> pipeline_real_;  // lazy: real-lane Auto sibling
};

/// Glorot-uniform complex init used by every layer (deterministic).
void init_weights(std::span<c32> w, std::size_t fan_in, std::size_t fan_out, unsigned seed);

}  // namespace turbofno::core
