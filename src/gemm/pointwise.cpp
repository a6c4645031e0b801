#include "gemm/pointwise.hpp"

#include <algorithm>

#include "gemm/batched.hpp"
#include "runtime/parallel.hpp"

namespace turbofno::gemm {

namespace {

/// The shape rule: the GEMM only when both channel counts are at least 16.
/// It pads the output channels to its row tile and packs both operands, so
/// on the narrow shapes (the 1 -> hidden lift, the hidden -> 1 projection)
/// the streaming loop is the faster kernel.
constexpr std::size_t kGemmMinChannels = 16;

bool gemm_shape(std::size_t in, std::size_t out) {
  return in >= kGemmMinChannels && out >= kGemmMinChannels;
}

/// V[b] (+)= W[out x in] * U[b][in x cols] on the tiled CGEMM (Re(W) only
/// when `w_kind` is RealPart).
void gemm_mix(const c32* w, const c32* u, c32* v, std::size_t in, std::size_t out,
              std::size_t batch, std::size_t cols, bool accumulate,
              AOperand w_kind = AOperand::Complex) {
  const BatchedStrides strides{0, static_cast<std::ptrdiff_t>(in * cols),
                               static_cast<std::ptrdiff_t>(out * cols)};
  cgemm_batched(out, cols, in, c32{1.0f, 0.0f}, w, in, u, cols,
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

}  // namespace

void Pointwise::forward(const c32* u, c32* v, std::size_t batch, std::size_t spatial,
                        bool accumulate) const {
  if (gemm_shape(in, out)) {
    gemm_mix(w, u, v, in, out, batch, spatial, accumulate);
    return;
  }
  loop_mix(u, v, in, out, batch, spatial, accumulate, [&](std::size_t i) { return w[i]; });
}

void Pointwise::forward(const float* u, float* v, std::size_t batch, std::size_t spatial,
                        bool accumulate) const {
  if (gemm_shape(in, out) && spatial % 2 == 0) {
    gemm_mix(w, reinterpret_cast<const c32*>(u), reinterpret_cast<c32*>(v), in, out, batch,
             spatial / 2, accumulate, AOperand::RealPart);
    return;
  }
  loop_mix(u, v, in, out, batch, spatial, accumulate, [&](std::size_t i) { return w[i].re; });
}

void relu(std::span<c32> x) {
  runtime::parallel_for(0, x.size(), 1 << 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      x[i].re = x[i].re > 0.0f ? x[i].re : 0.0f;
      x[i].im = x[i].im > 0.0f ? x[i].im : 0.0f;
    }
  });
}

void relu(std::span<float> x) {
  runtime::parallel_for(0, x.size(), 1 << 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      x[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
  });
}

}  // namespace turbofno::gemm
