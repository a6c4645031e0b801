#include "core/fno.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "baseline/problem.hpp"
#include "fused/layer.hpp"
#include "gemm/pointwise.hpp"
#include "runtime/parallel.hpp"

namespace turbofno::core {

namespace {

/// Cache budget for the hidden state of one streamed chunk, per runtime
/// thread: two hidden fields of every item in it.  Half the 2 MiB per-core
/// L2 of the AVX-512 Xeon it was measured on, so the layer's own
/// workspaces and weights fit beside it.
constexpr std::size_t kChunkBudgetBytes = std::size_t{1} << 20;

/// The first `n` elements of a hidden workspace as T: the c32 storage
/// itself, or a float view of it (the real lane).
template <class T>
std::span<T> hidden_view(AlignedBuffer<c32>& buf, std::size_t n) {
  return {reinterpret_cast<T*>(buf.data()), n};
}

/// The kernels' view of a layer's weights.
gemm::Pointwise view(const PointwiseLinear& p) {
  return {p.weights().data(), p.in_channels(), p.out_channels()};
}

}  // namespace

PointwiseLinear::PointwiseLinear(std::size_t in_ch, std::size_t out_ch, unsigned seed)
    : in_(in_ch), out_(out_ch), w_(in_ch * out_ch) {
  init_weights(w_.span(), in_ch, out_ch, seed);
}

void PointwiseLinear::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch,
                              std::size_t spatial, bool accumulate) const {
  view(*this).forward(u.data(), v.data(), batch, spatial, accumulate);
}

void PointwiseLinear::forward_real(std::span<const float> u, std::span<float> v,
                                   std::size_t batch, std::size_t spatial,
                                   bool accumulate) const {
  view(*this).forward(u.data(), v.data(), batch, spatial, accumulate);
}

void relu_inplace(std::span<c32> x) { gemm::relu(x); }

void relu_inplace(std::span<float> x) { gemm::relu(x); }

// ------------------------------------------------------------------- Fno

template <class Config>
Fno<Config>::Fno(const Config& cfg)
    : cfg_(cfg),
      batch_(1),
      lift_(cfg.in_channels, cfg.hidden, cfg.seed),
      project_(cfg.hidden, cfg.out_channels, cfg.seed + 1000003u) {
  // hidden and the spatial shape are validated by the spectral layers'
  // problem; the physical channel counts are only consumed here, so guard
  // them here (the per-item element counts divide the buffer checks).
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0 || cfg_.layers == 0) {
    throw std::invalid_argument(std::string(model_name(cfg_, false)) +
                                ": in_channels/out_channels/layers must be non-zero");
  }
  WeightScheme scheme = WeightScheme::Shared;
  if constexpr (requires { cfg.scheme; }) scheme = cfg.scheme;  // a 1D-only option
  spectral_.reserve(cfg_.layers);
  residual_.reserve(cfg_.layers);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    spectral_.emplace_back(layer_problem(cfg_), cfg_.backend, scheme,
                           cfg_.seed + static_cast<unsigned>(l) * 7919u);
    residual_.emplace_back(cfg_.hidden, cfg_.hidden, cfg_.seed + 31u + static_cast<unsigned>(l));
  }
  reserve_items(batch_);
}

template <class Config>
std::size_t Fno<Config>::chunk_items() const noexcept {
  const std::size_t item_bytes = 2 * cfg_.hidden * spatial_size(cfg_) * sizeof(c32);
  const auto threads = static_cast<std::size_t>(std::max(runtime::thread_count(), 1));
  return threads * std::max<std::size_t>(kChunkBudgetBytes / item_bytes, 1);
}

template <class Config>
void Fno<Config>::reserve_items(std::size_t items) {
  if (items <= items_) return;
  for (auto& layer : spectral_) layer.reserve(items);
  spectral_.front().reserve_layer(items, /*lifts=*/true, /*projects=*/false);
  spectral_.back().reserve_layer(items, /*lifts=*/false, /*projects=*/true);
  const std::size_t fields = std::min<std::size_t>(spectral_.size() - 1, 2);
  for (std::size_t i = 0; i < fields; ++i) {
    hidden_[i].resize(items * cfg_.hidden * spatial_size(cfg_));
  }
  items_ = items;
}

template <class Config>
void Fno<Config>::reserve(std::size_t batch) {
  // Grow everything before bumping the capacity mark (exception safety).
  reserve_items(std::min(batch, chunk_items()));
  batch_ = std::max(batch_, batch);
}

template <class Config>
void Fno<Config>::forward(std::span<const c32> u, std::span<c32> v) {
  forward(u, v, batch_);
}

template <class Config>
void Fno<Config>::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch) {
  run_lane(u, v, batch);
}

template <class Config>
void Fno<Config>::forward_real(std::span<const float> u, std::span<float> v, std::size_t batch) {
  run_lane(u, v, batch);
}

template <class Config>
template <class T>
void Fno<Config>::run_lane(std::span<const T> u, std::span<T> v, std::size_t batch) {
  const std::size_t spatial = spatial_size(cfg_);
  const std::size_t in = cfg_.in_channels * spatial;
  const std::size_t out = cfg_.out_channels * spatial;
  const std::size_t hid = cfg_.hidden * spatial;
  baseline::check_batch_spans(u.size(), v.size(), in, out, batch,
                              model_name(cfg_, std::is_same_v<T, float>));
  // One chunk size for the whole forward, even if the thread count moves.
  const std::size_t chunk = std::min(batch, chunk_items());
  reserve_items(chunk);
  batch_ = std::max(batch_, batch);
  const gemm::Pointwise lift = view(lift_);
  const gemm::Pointwise project = view(project_);
  const std::size_t L = spectral_.size();
  // tfno-hot-begin: chunk loop (heap allocation forbidden)
  for (std::size_t b0 = 0; b0 < batch; b0 += chunk) {
    const std::size_t n = std::min(chunk, batch - b0);
    for (std::size_t l = 0; l < L; ++l) {
      const bool first = l == 0;
      const bool last = l + 1 == L;
      fused::LayerStep<T> step;
      step.in = first ? u.subspan(b0 * in, n * in) : hidden_view<T>(hidden_[(l - 1) % 2], n * hid);
      step.out = last ? v.subspan(b0 * out, n * out) : hidden_view<T>(hidden_[l % 2], n * hid);
      step.lift = first ? &lift : nullptr;
      step.residual = view(residual_[l]);
      step.relu = !last;
      step.project = last ? &project : nullptr;
      spectral_[l].run_layer(step, n);
    }
  }
  // tfno-hot-end
}

template class Fno<Fno1dConfig>;
template class Fno<Fno2dConfig>;

}  // namespace turbofno::core
