#include "fused/ladder.hpp"

#include <type_traits>

#include "baseline/pipeline1d.hpp"
#include "baseline/pipeline2d.hpp"
#include "fused/layer.hpp"
#include "fused/pipeline1d.hpp"
#include "fused/pipeline2d.hpp"
#include "gemm/config.hpp"
#include "gemm/pointwise.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fused {

std::string_view variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::PyTorch:
      return "PyTorch";
    case Variant::FftOpt:
      return "FFT+GEMM+iFFT";
    case Variant::FusedFftGemm:
      return "Fused_FFT_GEMM+iFFT";
    case Variant::FusedGemmIfft:
      return "FFT+Fused_GEMM_iFFT";
    case Variant::FullyFused:
      return "Fused_FFT_GEMM_iFFT";
    case Variant::Auto:
      return "Auto";
  }
  return "?";
}

namespace {

// Cache budget the Auto heuristic assumes for the fused per-task working
// set.  Half of a typical 2 MiB per-core L2: the fused loops want their
// accumulator planes resident *alongside* the streaming input tile.
constexpr std::size_t kAutoL2Budget = 1u << 20;

// Bytes the Auto model charges one fused 1D task per signal: the split
// accumulator (2 float planes of out_dim x ld), the k-tile and its split
// panels, and the FFT scratch (2n c32).  The real lane retains modes/2+1 bins, so
// its accumulator and tile rows are roughly half as wide; the FFT scratch
// term stays 2n c32 (the C2R inverse needs the full extended spectrum plus
// the packed half-length transform's workspace).  The k-tile term charges
// the paper's k_tb = 8 (gemm::FusedTiles), not KLoopGemm's deeper tile, on
// purpose: the budget and the picks it makes were set against it.
std::size_t fused_task_bytes_1d(const baseline::Spectral1dProblem& p,
                                bool real_input) noexcept {
  const std::size_t m = real_input ? p.modes / 2 + 1 : p.modes;
  const std::size_t ld = simd::round_up_lanes(m);
  const std::size_t acc = 2 * p.out_dim * ld * sizeof(float);
  const std::size_t tile =
      gemm::FusedTiles::Ktb * ld * (sizeof(c32) + 2 * sizeof(float));
  const std::size_t fft_work = 2 * p.n * sizeof(c32);
  return acc + tile + fft_work;
}

// Bytes one fused 2D middle task keeps hot per (batch, x-row) group: the
// Y-direction accumulator planes and k-tile (the 1D task shape with
// modes_y rows), which is what iterates inside the staged middle.  The
// real lane halves the X extent, not the Y task, so it is unchanged here.
std::size_t fused_task_bytes_2d(const baseline::Spectral2dProblem& p) noexcept {
  baseline::Spectral1dProblem mid;
  mid.batch = 1;
  mid.hidden = p.hidden;
  mid.out_dim = p.out_dim;
  mid.n = p.ny;
  mid.modes = p.modes_y;
  return fused_task_bytes_1d(mid, false);
}

}  // namespace

Variant auto_variant_1d(const baseline::Spectral1dProblem& p, bool real_input) noexcept {
  if (fused_task_bytes_1d(p, real_input) > kAutoL2Budget) {
    return Variant::FftOpt;  // fused accumulator would thrash; stream instead
  }
  // Shallow truncation: fuse the epilogue only.  The same 2*modes > n test
  // serves both lanes — the real forward is an n/2-point packed transform
  // keeping modes/2+1 of n/2+1 bins, so the kept-to-produced ratio matches
  // the complex lane's modes / n.
  if (2 * p.modes > p.n) {
    return Variant::FusedGemmIfft;
  }
  return Variant::FullyFused;
}

Variant auto_variant_2d(const baseline::Spectral2dProblem& p, bool real_input) noexcept {
  // The fused middle stages a [K+O, ny, mx] tile group between the X
  // stages; if even a single field's staging outgrows the budget, the tile
  // gathers degrade to memory streams and the unfused schedule wins.  The
  // real lane stages modes_x/2+1 x-rows instead of modes_x — the halved
  // footprint lets shapes that spill in the complex lane stay fused.
  const std::size_t mx = real_input ? p.modes_x / 2 + 1 : p.modes_x;
  const std::size_t staging = (p.hidden + p.out_dim) * mx * p.ny * sizeof(c32);
  if (staging > kAutoL2Budget || fused_task_bytes_2d(p) > kAutoL2Budget) {
    return Variant::FftOpt;
  }
  if (2 * p.modes_y > p.ny) {
    return Variant::FusedGemmIfft;
  }
  return Variant::FullyFused;
}

Variant resolve_variant(Variant v, const baseline::Spectral1dProblem& prob,
                        bool real_input) noexcept {
  return v == Variant::Auto ? auto_variant_1d(prob, real_input) : v;
}

Variant resolve_variant(Variant v, const baseline::Spectral2dProblem& prob,
                        bool real_input) noexcept {
  return v == Variant::Auto ? auto_variant_2d(prob, real_input) : v;
}

std::unique_ptr<SpectralPipeline1d> make_pipeline1d(Variant v,
                                                    const baseline::Spectral1dProblem& prob,
                                                    bool real_input) {
  v = resolve_variant(v, prob, real_input);
  if (v == Variant::PyTorch) {
    return std::make_unique<baseline::BaselinePipeline1d>(prob);
  }
  return std::make_unique<LadderPipeline1d>(v, prob);
}

std::unique_ptr<SpectralPipeline2d> make_pipeline2d(Variant v,
                                                    const baseline::Spectral2dProblem& prob,
                                                    bool real_input) {
  v = resolve_variant(v, prob, real_input);
  if (v == Variant::PyTorch) {
    return std::make_unique<baseline::BaselinePipeline2d>(prob);
  }
  return std::make_unique<LadderPipeline2d>(v, prob);
}

// ------------------------------------------------- the unfused layer

namespace {

std::size_t spatial_of(const baseline::Spectral1dProblem& p) noexcept { return p.n; }
std::size_t spatial_of(const baseline::Spectral2dProblem& p) noexcept { return p.nx * p.ny; }

/// The first `n` elements of a workspace as T (the real lane's float view
/// of c32 storage), grown to hold them.
template <class T>
std::span<T> grown_view(AlignedBuffer<c32>& buf, std::size_t n) {
  const std::size_t elems = (n * sizeof(T) + sizeof(c32) - 1) / sizeof(c32);
  if (buf.size() < elems) buf.resize(elems);
  return {reinterpret_cast<T*>(buf.data()), n};
}

}  // namespace

template <class Problem>
void SpectralPipeline<Problem>::run_layer(const LayerStep<c32>& step, std::span<const c32> w,
                                          std::size_t batch) {
  run_layer_unfused(step, w, batch);
}

template <class Problem>
void SpectralPipeline<Problem>::run_layer(const LayerStep<float>& step, std::span<const c32> w,
                                          std::size_t batch) {
  run_layer_unfused(step, w, batch);
}

template <class Problem>
void SpectralPipeline<Problem>::reserve_layer(std::size_t batch, bool lifts, bool projects) {
  const std::size_t S = spatial_of(prob_);
  if (lifts) grown_view<c32>(lifted_, batch * prob_.hidden * S);
  if (projects) grown_view<c32>(mixed_out_, batch * prob_.out_dim * S);
}

template <class Problem>
template <class T>
void SpectralPipeline<Problem>::run_layer_unfused(const LayerStep<T>& step,
                                                  std::span<const c32> w, std::size_t batch) {
  const std::size_t S = spatial_of(prob_);
  const std::size_t in_ch = step.lift != nullptr ? step.lift->in : prob_.hidden;
  const std::size_t out_ch = step.project != nullptr ? step.project->out : prob_.out_dim;
  baseline::check_batch_spans(step.in.size(), step.out.size(), in_ch * S, out_ch * S, batch,
                              "run_layer");
  std::span<const T> h = step.in;
  if (step.lift != nullptr) {
    const std::span<T> lifted = grown_view<T>(lifted_, batch * prob_.hidden * S);
    step.lift->forward(step.in.data(), lifted.data(), batch, S);
    h = lifted;
  }
  const std::span<T> o = step.project != nullptr
                             ? grown_view<T>(mixed_out_, batch * prob_.out_dim * S)
                             : step.out.first(batch * prob_.out_dim * S);
  if constexpr (std::is_same_v<T, float>) {
    run_batched_real(h, w, o, batch);
  } else {
    run_batched(h, w, o, batch);
  }
  step.residual.forward(h.data(), o.data(), batch, S, /*accumulate=*/true);
  if (step.relu) gemm::relu(o);
  if (step.project != nullptr) step.project->forward(o.data(), step.out.data(), batch, S);
}

template class SpectralPipeline<baseline::Spectral1dProblem>;
template class SpectralPipeline<baseline::Spectral2dProblem>;

}  // namespace turbofno::fused
