// Strided-batched CGEMM — the cuBLAS-style single-call interface the FNO
// pipelines use: one logical launch covering `batch` independent GEMMs with
// fixed strides between operand instances.
#pragma once

#include <cstddef>

#include "gemm/cgemm.hpp"
#include "tensor/complex.hpp"

namespace turbofno::gemm {

struct BatchedStrides {
  std::ptrdiff_t a = 0;  // elements between consecutive A instances (0 = shared A)
  std::ptrdiff_t b = 0;  // elements between consecutive B instances (0 = shared B)
  std::ptrdiff_t c = 0;  // elements between consecutive C instances
};

/// For each i < batch:
///   C_i = alpha * A_i * B_i + beta * C_i      (row-major, as cgemm()).
/// A stride of zero broadcasts that operand across the batch (the FNO case:
/// one weight matrix A shared by every batch entry); a shared A is packed
/// once per parallel chunk, not once per item.  `a` = RealPart mixes with Re(A) only (the real
/// lane's pointwise weights).  Every item is bit-identical to a cgemm()
/// call on it.  Parallelized over (item, C tile) pairs; deterministic.
void cgemm_batched(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                   std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides,
                   AOperand a = AOperand::Complex);

}  // namespace turbofno::gemm
