// Full Fourier Neural Operator models (inference).
//
// Architecture per Li et al. / the paper's Figure 1(a):
//   lifting (pointwise complex linear in_ch -> hidden)
//   L x [ SpectralConv + pointwise residual path, activation ]
//   projection (pointwise hidden -> out_ch)
//
// One deviation from canonical FNO is inherited from the paper: spectra are
// truncated to the first `modes` bins of a C2C transform (no conjugate-
// symmetric half), so intermediate fields are genuinely complex; the
// activation acts on real and imaginary parts independently.
//
// Each layer is one pipeline call (fused/layer.hpp): the lift rides in the
// first layer and the projection in the last.  The 2D ladder rows run a
// whole layer in one pass over the field per lane (the lift in the forward
// X stage's gather; residual, ReLU and projection in the inverse X stage's
// epilogue); the 1D rows and the PyTorch rows run its parts as separate
// passes.  Either way the bits are the same.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "baseline/problem.hpp"
#include "core/config.hpp"
#include "core/spectral_conv.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/complex.hpp"

namespace turbofno::core {

/// Pointwise (1x1) complex channel mixing: v[b,o,s] = sum_k W[o,k] u[b,k,s].
///
/// Owns W [out, in]; the kernels are gemm::Pointwise's (gemm/pointwise.hpp).
/// One shape rule picks the kernel: when both channel counts are at least
/// 16 the mix is one strided-batched CGEMM, V[b] = W[out x in] * U[b][in x
/// spatial], on the packed SIMD kernel.  Narrower shapes (the lift, the
/// projection, small hidden widths) stream an o,k,s loop instead, because
/// the GEMM pads the output channels to its row tile.  Both are
/// deterministic per sample: results depend neither on the batch size,
/// the spatial extent (a model layer runs them on column slabs) nor the
/// thread count.
class PointwiseLinear {
 public:
  PointwiseLinear(std::size_t in_ch, std::size_t out_ch, unsigned seed);

  /// u [batch, in_ch, spatial] -> v [batch, out_ch, spatial].  With
  /// `accumulate` the mix is added onto v (GEMM beta = 1) instead of
  /// overwriting it, so a model writes its residual straight into the
  /// spectral output.
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch, std::size_t spatial,
               bool accumulate = false) const;
  /// Real-field variant: mixes with the real parts of the weights (the real
  /// model keeps every spatial tensor in floats; only the retained spectra
  /// are complex).  On the GEMM shape with an even `spatial` it views each
  /// pair of adjacent floats as one c32 and runs the CGEMM with a real A
  /// operand (gemm::AOperand::RealPart): the pack reads only w.re and the
  /// micro-kernel does 2 FMAs per complex lane, no weight copy is built;
  /// odd `spatial` takes the loop.  The pair view is exact for finite
  /// inputs, and bit-identical to a complex GEMM on {w.re, 0} weights.  A
  /// non-finite sample can still poison its pair partner in the complex
  /// alpha/beta epilogue (0 * inf), but the spectral branch already
  /// spreads a NaN across the whole item.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch,
                    std::size_t spatial, bool accumulate = false) const;

  /// Mutable weight access [out, in].  Weight-invalidating: writing through
  /// this span changes what subsequent forwards compute, and any derived
  /// state a caller packed from the old values (split/SoA weight planes)
  /// must be re-derived.  Use the const overload for read-only access.
  [[nodiscard]] std::span<c32> weights() noexcept { return w_.span(); }
  [[nodiscard]] std::span<const c32> weights() const noexcept { return w_.span(); }
  [[nodiscard]] std::size_t in_channels() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_channels() const noexcept { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  AlignedBuffer<c32> w_;  // [out, in]
};

/// Component-wise ReLU (acts on re and im independently).
void relu_inplace(std::span<c32> x);
/// ReLU on a real field.
void relu_inplace(std::span<float> x);

/// The per-dimension parts of a model: its spectral layers' problem
/// (hidden -> hidden, capacity one field) and the name its error messages
/// carry.
constexpr baseline::Spectral1dProblem layer_problem(const Fno1dConfig& cfg) noexcept {
  return {1, cfg.hidden, cfg.hidden, cfg.n, cfg.modes};
}
constexpr baseline::Spectral2dProblem layer_problem(const Fno2dConfig& cfg) noexcept {
  return {1, cfg.hidden, cfg.hidden, cfg.nx, cfg.ny, cfg.modes_x, cfg.modes_y};
}
constexpr const char* model_name(const Fno1dConfig&, bool real) noexcept {
  return real ? "Fno1d(real)" : "Fno1d";
}
constexpr const char* model_name(const Fno2dConfig&, bool real) noexcept {
  return real ? "Fno2d(real)" : "Fno2d";
}

/// One FNO over either config: Fno1d runs 1D Fourier layers on [n] fields,
/// Fno2d runs 2D ones on [nx, ny] fields; everything else is shared.
///
/// A forward is one loop over the layers, and each layer is one call into
/// its spectral layer's pipeline with the pointwise parts beside it: the
/// lift rides in the first layer, the residual and (between layers) the
/// ReLU in every layer, the projection in the last.  On the 2D ladder rows
/// that call reads the layer's input field and writes its output field
/// once, doing the pointwise work on cache-resident slabs inside the X
/// stages; the 1D rows and the PyTorch rows run the parts as separate
/// whole-field passes.  The only full-field buffers the model holds are
/// the hidden fields between layers: none for one layer, one for two, two
/// for more.
template <class Config>
class Fno {
 public:
  using SpectralLayer = SpectralConv<decltype(layer_problem(std::declval<const Config&>()))>;

  /// Capacity is elastic: the model starts sized for one field and grows
  /// its workspaces on demand (reserve / a larger forward micro-batch).
  explicit Fno(const Config& cfg);

  /// u [batch, in_channels, spatial] -> v [batch, out_channels, spatial]
  /// over the current capacity (see capacity()); spatial is n or nx * ny.
  void forward(std::span<const c32> u, std::span<c32> v);
  /// Micro-batch variant for the serving layer: first `batch` fields; a
  /// batch beyond the current capacity grows the workspaces in place.
  /// Per-field results are bitwise-identical to a batch-1 forward.
  ///
  /// Every forward streams the batch through the whole model in chunks of
  /// chunk_items() fields: each chunk runs lift -> all layers -> projection
  /// before the next starts, so the hidden fields live in chunk-sized
  /// buffers that stay cache-resident instead of making a batch-sized round
  /// trip to memory between stages.
  void forward(std::span<const c32> u, std::span<c32> v, std::size_t batch);
  /// Real-input forward: u [batch, in_channels, spatial] and v [batch,
  /// out_channels, spatial] hold real samples; every hidden field stays in
  /// floats (views of the complex workspaces) and each spectral layer runs
  /// its RFFT half-spectrum lane (SpectralConv::forward_real).
  /// Requires the leading spatial axis (n / nx) >= 4.
  void forward_real(std::span<const float> u, std::span<float> v, std::size_t batch);

  /// Grows the hidden-state workspaces (and every layer's) so forwards up
  /// to `batch` run without reallocation at the current thread count.
  /// They are sized for min(batch, chunk_items()) fields, one chunk.
  /// Never shrinks; growth does not perturb results or weights.
  void reserve(std::size_t batch);

  /// Fields per streamed chunk: as many as fit their hidden state (two
  /// hidden fields each) in a 1 MiB cache budget, at least one, times
  /// runtime::thread_count().  Depends only on the shape and the threads.
  [[nodiscard]] std::size_t chunk_items() const noexcept;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// Current capacity high-water mark (grows, never shrinks): the largest
  /// batch reserved or run, whatever the chunk the workspaces hold.
  [[nodiscard]] std::size_t capacity() const noexcept { return batch_; }
  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

  /// Mutable layer access.  Weight-invalidating (see PointwiseLinear::
  /// weights): use the const overloads when only reading.
  [[nodiscard]] std::vector<SpectralLayer>& spectral_layers() noexcept { return spectral_; }
  [[nodiscard]] const std::vector<SpectralLayer>& spectral_layers() const noexcept {
    return spectral_;
  }
  [[nodiscard]] PointwiseLinear& lift() noexcept { return lift_; }
  [[nodiscard]] const PointwiseLinear& lift() const noexcept { return lift_; }
  [[nodiscard]] std::vector<PointwiseLinear>& residual_layers() noexcept { return residual_; }
  [[nodiscard]] const std::vector<PointwiseLinear>& residual_layers() const noexcept {
    return residual_;
  }
  [[nodiscard]] PointwiseLinear& projection() noexcept { return project_; }
  [[nodiscard]] const PointwiseLinear& projection() const noexcept { return project_; }

 private:
  /// Grows the hidden buffers and every layer to hold `items` fields.
  void reserve_items(std::size_t items);
  /// One forward on either lane: T is c32 (complex) or float (real).
  template <class T>
  void run_lane(std::span<const T> u, std::span<T> v, std::size_t batch);

  Config cfg_;
  std::size_t batch_;
  std::size_t items_ = 0;  // chunk items the workspaces hold
  PointwiseLinear lift_;
  std::vector<SpectralLayer> spectral_;
  std::vector<PointwiseLinear> residual_;
  PointwiseLinear project_;
  // The hidden fields between layers, for one chunk: layer l writes
  // hidden_[l % 2] and layer l + 1 reads it.  The first layer reads the
  // input and the last writes the output, so a model holds min(L - 1, 2)
  // of them.  The real lane runs on float views of the same storage (a c32
  // buffer holds twice the floats it needs).
  AlignedBuffer<c32> hidden_[2];
};

extern template class Fno<Fno1dConfig>;
extern template class Fno<Fno2dConfig>;
using Fno1d = Fno<Fno1dConfig>;
using Fno2d = Fno<Fno2dConfig>;

}  // namespace turbofno::core
