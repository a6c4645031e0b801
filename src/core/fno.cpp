#include "core/fno.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "baseline/problem.hpp"
#include "gemm/batched.hpp"
#include "runtime/parallel.hpp"

namespace turbofno::core {

namespace {

/// The shape rule of PointwiseLinear: the GEMM only when both channel counts
/// are at least 16.  It pads the output channels to its row tile and packs
/// both operands, so on one thread of an AVX2 Xeon at 256x128 x batch 4 it
/// takes 7-9 ms for the 40 -> 1 projection (loop: 2.5 ms) and 5-8 ms for
/// the 1 -> 40 lift (loop: 4-5 ms).  For the 8-channel serving model it did
/// not lower request latency.
constexpr std::size_t kGemmMinChannels = 16;

bool gemm_shape(std::size_t in, std::size_t out) {
  return in >= kGemmMinChannels && out >= kGemmMinChannels;
}

/// V[b] (+)= W[out x in] * U[b][in x cols] on the tiled CGEMM (Re(W) only
/// when `w_kind` is RealPart).
void gemm_mix(const c32* w, const c32* u, c32* v, std::size_t in, std::size_t out,
              std::size_t batch, std::size_t cols, bool accumulate,
              gemm::AOperand w_kind = gemm::AOperand::Complex) {
  const gemm::BatchedStrides strides{0, static_cast<std::ptrdiff_t>(in * cols),
                                     static_cast<std::ptrdiff_t>(out * cols)};
  gemm::cgemm_batched(out, cols, in, c32{1.0f, 0.0f}, w, in, u, cols,
                      c32{accumulate ? 1.0f : 0.0f, 0.0f}, v, cols, batch, strides, w_kind);
}

/// The streaming o,k,s loop for narrow shapes; T is c32 or float and
/// weight(i) the weight at flat index i in that type.
template <class T, class Weight>
void loop_mix(const T* u, T* v, std::size_t in, std::size_t out, std::size_t batch,
              std::size_t spatial, bool accumulate, Weight weight) {
  runtime::parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const T* ub = u + b * in * spatial;
      T* vb = v + b * out * spatial;
      for (std::size_t o = 0; o < out; ++o) {
        T* vrow = vb + o * spatial;
        if (!accumulate && in == 0) std::fill(vrow, vrow + spatial, T{});
        for (std::size_t k = 0; k < in; ++k) {
          const T w = weight(o * in + k);
          const T* urow = ub + k * spatial;
          if (k == 0 && !accumulate) {
            // The first channel starts the row: 0 + w * u is the same
            // arithmetic as accumulating onto a zeroed row, in one pass.
            for (std::size_t s = 0; s < spatial; ++s) vrow[s] = T{} + w * urow[s];
          } else {
            for (std::size_t s = 0; s < spatial; ++s) vrow[s] += w * urow[s];
          }
        }
      }
    }
  });
}

/// Cache budget for the hidden state of one streamed chunk, per runtime
/// thread: the two ping-pong fields of every item in it.  Half the 2 MiB
/// per-core L2 of the AVX-512 Xeon it was measured on, so the layer's own
/// workspaces and weights fit beside it.
constexpr std::size_t kChunkBudgetBytes = std::size_t{1} << 20;

/// The first `n` elements of a hidden workspace as T: the c32 storage
/// itself, or a float view of it (the real lane).
template <class T>
std::span<T> hidden_view(AlignedBuffer<c32>& buf, std::size_t n) {
  return {reinterpret_cast<T*>(buf.data()), n};
}

/// The hidden layers of a model: h1 <- spectral(h0), h1 += residual(h0),
/// act(h1) (skipped on the last layer), swap.  T is c32 (complex lane) or
/// float (real lane).  Returns the span holding the final hidden field.
template <class T, class Spectral>
std::span<T> run_layers(std::vector<Spectral>& spectral,
                        const std::vector<PointwiseLinear>& residual, std::span<T> h0,
                        std::span<T> h1, std::size_t batch, std::size_t spatial) {
  // tfno-hot-begin: per-layer body (heap allocation forbidden)
  for (std::size_t l = 0; l < spectral.size(); ++l) {
    if constexpr (std::is_same_v<T, float>) {
      spectral[l].forward_real(h0, h1, batch);
      residual[l].forward_real(h0, h1, batch, spatial, /*accumulate=*/true);
    } else {
      spectral[l].forward(h0, h1, batch);
      residual[l].forward(h0, h1, batch, spatial, /*accumulate=*/true);
    }
    if (l + 1 < spectral.size()) relu_inplace(h1);
    std::swap(h0, h1);
  }
  // tfno-hot-end
  return h0;
}

}  // namespace

PointwiseLinear::PointwiseLinear(std::size_t in_ch, std::size_t out_ch, unsigned seed)
    : in_(in_ch), out_(out_ch), w_(in_ch * out_ch) {
  init_weights(w_.span(), in_ch, out_ch, seed);
}

void PointwiseLinear::forward(std::span<const c32> u, std::span<c32> v, std::size_t batch,
                              std::size_t spatial, bool accumulate) const {
  if (gemm_shape(in_, out_)) {
    gemm_mix(w_.data(), u.data(), v.data(), in_, out_, batch, spatial, accumulate);
    return;
  }
  loop_mix(u.data(), v.data(), in_, out_, batch, spatial, accumulate,
           [&](std::size_t i) { return w_[i]; });
}

void PointwiseLinear::forward_real(std::span<const float> u, std::span<float> v,
                                   std::size_t batch, std::size_t spatial,
                                   bool accumulate) const {
  if (gemm_shape(in_, out_) && spatial % 2 == 0) {
    gemm_mix(w_.data(), reinterpret_cast<const c32*>(u.data()), reinterpret_cast<c32*>(v.data()),
             in_, out_, batch, spatial / 2, accumulate, gemm::AOperand::RealPart);
    return;
  }
  loop_mix(u.data(), v.data(), in_, out_, batch, spatial, accumulate,
           [&](std::size_t i) { return w_[i].re; });
}

void relu_inplace(std::span<c32> x) {
  runtime::parallel_for(0, x.size(), 1 << 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      x[i].re = x[i].re > 0.0f ? x[i].re : 0.0f;
      x[i].im = x[i].im > 0.0f ? x[i].im : 0.0f;
    }
  });
}

void relu_inplace(std::span<float> x) {
  runtime::parallel_for(0, x.size(), 1 << 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      x[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
  });
}

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
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0) {
    throw std::invalid_argument(std::string(model_name(cfg_, false)) +
                                ": in_channels/out_channels must be non-zero");
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
  const std::size_t hid = items * cfg_.hidden * spatial_size(cfg_);
  if (hid <= h0_.size()) return;
  for (auto& layer : spectral_) layer.reserve(items);
  h0_.resize(hid);
  h1_.resize(hid);
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
  // tfno-hot-begin: chunk loop (heap allocation forbidden)
  for (std::size_t b0 = 0; b0 < batch; b0 += chunk) {
    const std::size_t n = std::min(chunk, batch - b0);
    const auto ui = u.subspan(b0 * in, n * in);
    const auto vi = v.subspan(b0 * out, n * out);
    const auto h0 = hidden_view<T>(h0_, n * hid);
    const auto h1 = hidden_view<T>(h1_, n * hid);
    if constexpr (std::is_same_v<T, float>) {
      lift_.forward_real(ui, h0, n, spatial);
      project_.forward_real(run_layers(spectral_, residual_, h0, h1, n, spatial), vi, n, spatial);
    } else {
      lift_.forward(ui, h0, n, spatial);
      project_.forward(run_layers(spectral_, residual_, h0, h1, n, spatial), vi, n, spatial);
    }
  }
  // tfno-hot-end
}

template class Fno<Fno1dConfig>;
template class Fno<Fno2dConfig>;

}  // namespace turbofno::core
