// One FNO layer as a single pipeline call (internal to the library).
//
// core::Fno runs each of its layers as one SpectralPipeline::run_layer:
//
//   h   = lift ? lift(in) : in                 [batch, hidden, spatial]
//   h'  = spectral(h) + residual(h)            [batch, out_dim, spatial]
//   h'  = ReLU(h')                             unless the layer is the last
//   out = project ? project(h') : h'
//
// The default implementation (SpectralPipeline::run_layer, ladder.cpp) is
// the unfused sequence: each step is a pass over whole fields, as the 1D
// rows and the PyTorch baseline rows run it.  LadderPipeline2d runs the
// whole layer inside its two full-resolution stages instead: the forward X
// stage gathers the lifted input slab by slab, and the inverse X stage's
// epilogue adds the residual, applies the ReLU and projects each output
// slab while it is cache-resident (fused/pipeline2d.hpp).  Both compute the
// same bits: every pointwise kernel sums its channels in the same order on
// a slab as on a whole field (gemm/pointwise.hpp).
#pragma once

#include <span>

#include "fused/ladder.hpp"
#include "gemm/pointwise.hpp"

namespace turbofno::fused {

/// The operands of one layer; T is c32 (complex lane) or float (real lane).
template <class T>
struct LayerStep {
  std::span<const T> in;   // [batch, lift ? lift->in : hidden, spatial]
  std::span<T> out;        // [batch, project ? project->out : out_dim, spatial]
  const gemm::Pointwise* lift = nullptr;     // first layer: in is the model input
  gemm::Pointwise residual;                  // hidden -> out_dim
  bool relu = false;                         // every layer but the last
  const gemm::Pointwise* project = nullptr;  // last layer: out is the model output
};

}  // namespace turbofno::fused
