// Pointwise (1x1) channel mixing and the ReLU: the FNO's lift, residual
// and projection kernels.
//
// A Pointwise is a non-owning view of a complex weight matrix W [out x in]
// (core::PointwiseLinear owns the weights).  It mixes the channels of
// `batch` blocks of [in][spatial] samples into [out][spatial] samples,
//
//   v[b, o, s] (+)= sum_k W[o, k] u[b, k, s],
//
// and nothing in it depends on what the spatial axis is: a whole field
// (spatial = n or nx * ny) and one column slab of it copied out as dense
// [in][rows * g] rows are the same call, with the same bits per sample.
// That is how the fused 2D layer (fused/pipeline2d.cpp) runs the lift, the
// residual and the projection on cache-resident slabs inside its X-stage
// tasks.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::gemm {

/// W [out x in], row-major, viewed.
///
/// One shape rule picks the kernel: when both channel counts are at least
/// 16 the mix is one strided-batched CGEMM, V[b] = W * U[b], on the packed
/// SIMD kernel.  Narrower shapes (the lift, the projection, small hidden
/// widths) stream an o,k,s loop instead, because the GEMM pads the output
/// channels to its row tile.  Either way every sample's sum runs over k in
/// order with the same operations, so results depend neither on the batch,
/// the spatial extent, nor the thread count.
struct Pointwise {
  const c32* w = nullptr;
  std::size_t in = 0;
  std::size_t out = 0;

  /// u [batch, in, spatial] -> v [batch, out, spatial].  With `accumulate`
  /// the mix is added onto v (GEMM beta = 1) instead of overwriting it.
  void forward(const c32* u, c32* v, std::size_t batch, std::size_t spatial,
               bool accumulate = false) const;
  /// Real samples, mixed with Re(W).  On the GEMM shape with an even
  /// `spatial` each pair of adjacent floats is viewed as one c32 and the
  /// CGEMM runs with a real A operand (gemm::AOperand::RealPart): exact for
  /// finite inputs and bit-identical to a complex GEMM on {w.re, 0}
  /// weights.  Odd `spatial` takes the loop.
  void forward(const float* u, float* v, std::size_t batch, std::size_t spatial,
               bool accumulate = false) const;
};

/// Component-wise ReLU (re and im independently), parallel over chunks
/// of 64k elements; inside a worker's task it runs inline.
void relu(std::span<c32> x);
void relu(std::span<float> x);

}  // namespace turbofno::gemm
