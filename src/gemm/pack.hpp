// Operand packing for the blocked CGEMM.
//
// Packing zero-fills tile remainders so the micro-kernel never branches on
// edges; zeros contribute nothing to the accumulation.  The GEMM packs
// each A panel once for all the C tiles that read it (cgemm.cpp) and each
// B panel per C tile.  The interleaved panels are one Ktb-deep k-tile,
// zero-filled past the valid depth; the split panels hold exactly the kc
// k-slices asked for (the whole K in the GEMM, one k-tile in the fused
// k-loop).
//
// Two layouts are produced:
//   - interleaved (c32) panels for the scalar backend, unchanged from the
//     seed kernel;
//   - split-complex (SoA) float panels for the SIMD backends (and the
//     fused k-loop on every backend), where each k-slice stores all reals
//     then all imaginaries so the micro-kernel's inner loop is pure
//     vertical FMA with no shuffles.  A is packed in row blocks of the
//     register block's R rows:
//       Apack[b][k] = { re[0..R), im[0..R) }    (2*R floats per k)
//       Bpack[k]    = { re[0..Ntb), im[0..Ntb) } (2*Ntb floats per k)
//
// A real A operand (`RealA`) reads only A.re.  Its split panel is the re
// plane alone (R floats per k); its interleaved panel holds {re, 0}.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

/// Apack[k][i] = A[i0+i, k0+k]; rows beyond `mi` / depth beyond `kc` zeroed.
template <std::size_t Mtb, std::size_t Ktb, bool RealA = false>
inline void pack_a_tile(c32* Apack, const c32* A, std::size_t lda, std::size_t i0,
                        std::size_t k0, std::size_t mi, std::size_t kc) {
  for (std::size_t k = 0; k < Ktb; ++k) {
    c32* dst = Apack + k * Mtb;
    if (k < kc) {
      const c32* src = A + i0 * lda + (k0 + k);
      std::size_t i = 0;
      for (; i < mi; ++i) dst[i] = RealA ? c32{src[i * lda].re, 0.0f} : src[i * lda];
      for (; i < Mtb; ++i) dst[i] = c32{};
    } else {
      std::memset(dst, 0, Mtb * sizeof(c32));
    }
  }
}

/// Bpack[k][j] = B[k0+k, j0+j]; columns beyond `nj` / depth beyond `kc` zeroed.
template <std::size_t Ntb, std::size_t Ktb>
inline void pack_b_tile(c32* Bpack, const c32* B, std::size_t ldb, std::size_t k0,
                        std::size_t j0, std::size_t kc, std::size_t nj) {
  for (std::size_t k = 0; k < Ktb; ++k) {
    c32* dst = Bpack + k * Ntb;
    if (k < kc) {
      const c32* src = B + (k0 + k) * ldb + j0;
      std::memcpy(dst, src, nj * sizeof(c32));
      for (std::size_t j = nj; j < Ntb; ++j) dst[j] = c32{};
    } else {
      std::memset(dst, 0, Ntb * sizeof(c32));
    }
  }
}

/// Floats per k-slice of a split A row block of R rows: the re plane, then
/// the im plane unless A is real.
template <std::size_t R, bool RealA>
inline constexpr std::size_t kASliceFloats = (RealA ? 1 : 2) * R;

/// Split-complex A panel of rows i0..i0+mi in row blocks of R rows (the
/// register block's height), each block k-major over the kc k-slices:
/// Apack[b][k][{re,im}][r] = A[i0 + b*R + r, k0 + k] (re plane only when
/// RealA), so a register block streams one contiguous R-row micro-panel.
/// Block b starts at b * kc * kASliceFloats<R, RealA>; rows beyond mi in
/// the last block are zeroed.  A is walked down a column (stride lda), so
/// this is a scalar gather regardless of backend.
template <std::size_t R, bool RealA = false>
inline void pack_a_tile_split(float* Apack, const c32* A, std::size_t lda, std::size_t i0,
                              std::size_t k0, std::size_t mi, std::size_t kc) {
  constexpr std::size_t slice = kASliceFloats<R, RealA>;
  for (std::size_t b0 = 0; b0 < mi; b0 += R, Apack += kc * slice) {
    const std::size_t rows = std::min(R, mi - b0);
    for (std::size_t k = 0; k < kc; ++k) {
      float* re = Apack + k * slice;
      float* im = re + R;
      const c32* src = A + (i0 + b0) * lda + (k0 + k);
      std::size_t r = 0;
      for (; r < rows; ++r) {
        re[r] = src[r * lda].re;
        if constexpr (!RealA) im[r] = src[r * lda].im;
      }
      for (; r < R; ++r) {
        re[r] = 0.0f;
        if constexpr (!RealA) im[r] = 0.0f;
      }
    }
  }
}

/// Split-complex B panel: Bpack[k][{re,im}][j] = B[k0+k, j0+j] for the kc
/// k-slices; columns beyond `nj` zeroed.  B rows are contiguous, so the
/// deinterleave runs at vector width.
template <std::size_t Ntb, class B = simd::Active>
inline void pack_b_tile_split(float* Bpack, const c32* Bsrc, std::size_t ldb, std::size_t k0,
                              std::size_t j0, std::size_t kc, std::size_t nj) {
  for (std::size_t k = 0; k < kc; ++k) {
    float* re = Bpack + k * 2 * Ntb;
    float* im = re + Ntb;
    simd::split_planes<B>(Bsrc + (k0 + k) * ldb + j0, re, im, nj);
    std::fill(re + nj, re + Ntb, 0.0f);
    std::fill(im + nj, im + Ntb, 0.0f);
  }
}

}  // namespace turbofno::gemm
