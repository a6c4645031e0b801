// Register-tile micro-kernels of the blocked CGEMM.
//
// Packed operand layout (both k-major) so the inner loop streams
// contiguously, the CPU analogue of the shared-memory A/B tiles in the
// paper's Figure 9 pseudocode:
//   Apack[Ktb][Mtb]  — Apack[k][i] = A[i, k0+k]  (column-major A tile)
//   Bpack[Ktb][Ntb]  — Bpack[k][j] = B[k0+k, j]
//
// Two kernels:
//   micro_accumulate        the seed's scalar kernel over interleaved (c32)
//                           panels; the scalar backend's GEMM path and the
//                           bench baseline.
//   micro_accumulate_split  explicit-SIMD kernel over split-complex (SoA)
//                           float panels (see pack.hpp).  The Mt x JW
//                           register block holds re/im vector pairs; each k
//                           step is a B-vector load, Mt broadcasts, and
//                           Mt * JW/lanes complex FMAs — no shuffles.  Its
//                           real-A variant (`RealA`) reads a re-only A
//                           panel and does 2 FMAs per complex lane (rmadd)
//                           instead of 4, bit-identical to the complex
//                           kernel on {re, 0} for finite data.
//   accumulate_tile_split   runs the split kernel over one C tile's register
//                           blocks; the CGEMM's SIMD tile task and the fused
//                           ladder's k-loop both call it.
//
// Both read A panels the GEMM packed once, not per C tile (cgemm.cpp).
#pragma once

#include <cstddef>

#include "gemm/pack.hpp"
#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

/// acc[Mt][Nt] += Apack_col(k)[i0..i0+Mt) x Bpack_row(k)[j0..j0+Nt) over kc
/// values of k.
template <std::size_t Mt, std::size_t Nt, std::size_t Mtb, std::size_t Ntb>
inline void micro_accumulate(c32 (&acc)[Mt][Nt], const c32* Apack, const c32* Bpack,
                             std::size_t kc, std::size_t i0, std::size_t j0) {
  for (std::size_t k = 0; k < kc; ++k) {
    const c32* arow = Apack + k * Mtb + i0;
    const c32* brow = Bpack + k * Ntb + j0;
    for (std::size_t i = 0; i < Mt; ++i) {
      const c32 a = arow[i];
      for (std::size_t j = 0; j < Nt; ++j) {
        cmadd(acc[i][j], a, brow[j]);
      }
    }
  }
}

/// The j-block width of the SIMD register tile for a config whose scalar
/// register tile is Mt x Nt: at least one full vector, otherwise Nt.
template <class B, std::size_t Nt>
inline constexpr std::size_t kJBlock = Nt >= B::lanes ? Nt : B::lanes;

/// Split-complex accumulator tile += Apack panel x Bpack panel over kc steps.
///
/// `acc` holds the Mtb x Ntb tile as two planes: re at [i * Ntb + j], im at
/// [Mtb * Ntb + i * Ntb + j].  The (i0, j0) register block of shape
/// Mt x JW stays in registers for the whole kc loop.  With RealA the A
/// panel is the re plane alone (pack_a_tile_split<..., true>).
template <class B, std::size_t Mt, std::size_t JW, std::size_t Mtb, std::size_t Ntb,
          bool RealA = false>
inline void micro_accumulate_split(float* acc, const float* Apack, const float* Bpack,
                                   std::size_t kc, std::size_t i0, std::size_t j0) {
  static_assert(JW % B::lanes == 0, "j-block must be whole vectors");
  constexpr std::size_t NV = JW / B::lanes;
  using V = typename B::cvec;

  float* acc_re = acc + i0 * Ntb + j0;
  float* acc_im = acc + Mtb * Ntb + i0 * Ntb + j0;

  V r[Mt][NV];
  for (std::size_t i = 0; i < Mt; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      r[i][v] = B::load_split(acc_re + i * Ntb + v * B::lanes, acc_im + i * Ntb + v * B::lanes);
    }
  }

  for (std::size_t k = 0; k < kc; ++k) {
    const float* bre = Bpack + k * 2 * Ntb + j0;
    const float* bim = bre + Ntb;
    V b[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      b[v] = B::load_split(bre + v * B::lanes, bim + v * B::lanes);
    }
    const float* are = Apack + k * kASliceFloats<Mtb, RealA> + i0;
    const float* aim = are + Mtb;
    for (std::size_t i = 0; i < Mt; ++i) {
      if constexpr (RealA) {
        for (std::size_t v = 0; v < NV; ++v) r[i][v] = B::rmadd(r[i][v], are[i], b[v]);
      } else {
        const V a = B::broadcast_split(are[i], aim[i]);
        for (std::size_t v = 0; v < NV; ++v) r[i][v] = B::cmadd(r[i][v], a, b[v]);
      }
    }
  }

  for (std::size_t i = 0; i < Mt; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      B::store_split(acc_re + i * Ntb + v * B::lanes, acc_im + i * Ntb + v * B::lanes, r[i][v]);
    }
  }
}

/// The Mtb x Ntb split accumulator tile `acc` += Apack panel x Bpack panel
/// over kc steps, one Mt x JW register block at a time.  Only the first
/// `mi` rows and `nj` columns are valid: a block lying wholly in the zero
/// padding beyond them is skipped, since it never reaches C (e.g. rows
/// 40..63 of a 40-row GEMM).  The blocks that are run touch the first mi
/// rows rounded up to Mt, and the first nj columns rounded up to JW.
template <class Cfg, class B, bool RealA = false>
inline void accumulate_tile_split(float* acc, const float* Apack, const float* Bpack,
                                  std::size_t kc, std::size_t mi, std::size_t nj) {
  constexpr std::size_t JW = kJBlock<B, Cfg::Nt>;
  static_assert(Cfg::Ntb % JW == 0, "j-block must divide the tile width");
  for (std::size_t ii = 0; ii < mi; ii += Cfg::Mt) {
    for (std::size_t jj = 0; jj < nj; jj += JW) {
      micro_accumulate_split<B, Cfg::Mt, JW, Cfg::Mtb, Cfg::Ntb, RealA>(acc, Apack, Bpack, kc, ii,
                                                                       jj);
    }
  }
}

}  // namespace turbofno::gemm
