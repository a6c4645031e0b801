// Register-tile micro-kernels of the blocked CGEMM.
//
// Packed operand layout (both k-major) so the inner loop streams
// contiguously, the CPU analogue of the shared-memory A/B tiles in the
// paper's Figure 9 pseudocode:
//   Apack[K][Mtb]  — Apack[k][i] = A[i, k]  (column-major A panel; the split
//                    panels in register-block-high row blocks, pack.hpp)
//   Bpack[K][Ntb]  — Bpack[k][j] = B[k, j]
//
// Two kernels:
//   micro_accumulate   the seed's scalar kernel over interleaved (c32)
//                      panels; the scalar backend's GEMM path and the bench
//                      baseline.
//   block_steps        explicit-SIMD kernel over split-complex (SoA) float
//                      panels (see pack.hpp).  The backend's register block
//                      (RegBlock: rows x vecs split-complex vectors) holds
//                      re/im vector pairs; each k step is a B-vector load
//                      per vector, one broadcast per row, and rows * vecs
//                      complex FMAs — no shuffles.  Its real-A variant
//                      (`RealA`) reads a re-only A panel and does 2 FMAs per
//                      complex lane (rmadd) instead of 4, bit-identical to
//                      the complex kernel on {re, 0} for finite data.
//
// for_each_block walks a tile's register blocks.  The CGEMM's SIMD tile
// task runs each block over the whole K from zero in registers and writes
// C from them (cgemm.cpp); accumulate_tile_split, the fused ladder's
// k-loop, carries a split accumulator tile in memory across k-tiles that
// arrive one FFT at a time.  Either way every output is one k-ordered
// cmadd/rmadd chain, so the block shape moves no bits.
#pragma once

#include <cstddef>
#include <type_traits>

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

/// Register block of backend B on the split kernels: `rows` A rows times
/// `vecs` B vectors of split-complex accumulators.  Sized by the FMA
/// latency x ports rule (Low et al., "Analytical Modeling Is Enough for
/// High-Performance BLIS", TOMS 2016) within the register file:
///   avx2    4 x 1 (8 of the 16 ymm), leaving room for the B vectors and
///           the A broadcasts;
///   avx512  8 x 2 for a complex A, 8 x 1 for a real A, whose rmadd is
///           half the FMAs per lane.  8 x 2 is 32 accumulator zmm, the
///           whole register file: GCC 12 keeps 6 of them on the stack (a
///           load and a store each per k step beside 64 FMAs), and
///           spill-free 4 x 2 and 8 x 1 blocks measured no faster;
///   scalar  the seed's 4 x 4 complex register tile (the fused k-loop of a
///           scalar build; its CGEMM runs micro_accumulate).
template <class B, bool RealA>
struct RegBlock {
  static constexpr std::size_t rows = 4;
  static constexpr std::size_t vecs = 1;
};
template <bool RealA>
struct RegBlock<simd::ScalarBackend, RealA> {
  static constexpr std::size_t rows = 4;
  static constexpr std::size_t vecs = 4;
};
#if TURBOFNO_SIMD_HAVE_AVX512
template <bool RealA>
struct RegBlock<simd::Avx512Backend, RealA> {
  static constexpr std::size_t rows = 8;
  static constexpr std::size_t vecs = RealA ? 1 : 2;
};
#endif

/// r[i][v] += A row i x B vector v over kc steps (k = 0..kc-1 in order).
/// `Ablock` is one R-row block of a split A panel (pack_a_tile_split<R>,
/// the re plane alone with RealA); `Bcols` points at the block's first
/// column in a split B panel of Ntb columns.
template <class B, std::size_t R, std::size_t NV, std::size_t Ntb, bool RealA>
[[gnu::always_inline]] inline void block_steps(typename B::cvec (&r)[R][NV], const float* Ablock,
                                               const float* Bcols, std::size_t kc) {
  using V = typename B::cvec;
  for (std::size_t k = 0; k < kc; ++k) {
    const float* bre = Bcols + k * 2 * Ntb;
    const float* bim = bre + Ntb;
    V b[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      b[v] = B::load_split(bre + v * B::lanes, bim + v * B::lanes);
    }
    const float* are = Ablock + k * kASliceFloats<R, RealA>;
    const float* aim = are + R;
    for (std::size_t i = 0; i < R; ++i) {
      if constexpr (RealA) {
        for (std::size_t v = 0; v < NV; ++v) r[i][v] = B::rmadd(r[i][v], are[i], b[v]);
      } else {
        const V a = B::broadcast_split(are[i], aim[i]);
        for (std::size_t v = 0; v < NV; ++v) r[i][v] = B::cmadd(r[i][v], a, b[v]);
      }
    }
  }
}

/// Calls f(std::integral_constant<size_t, NV>, ii, jj) for every register
/// block of the first mi rows and nj columns of a tile: column strips of
/// the full RegBlock::vecs vectors, then one-vector strips over a column
/// tail narrower than that, and every RegBlock::rows-row block down each
/// strip (the strip's B columns stay in L1 while the A blocks stream).
/// The blocks touch the first mi rows rounded up to `rows` and the first
/// nj columns rounded up to a whole vector; a block lying wholly in the
/// zero padding beyond them is never run (e.g. rows 40..63 of a 40-row
/// GEMM).
template <class B, bool RealA, class F>
[[gnu::always_inline]] inline void for_each_block(std::size_t mi, std::size_t nj, F&& f) {
  using RB = RegBlock<B, RealA>;
  constexpr std::size_t W = RB::vecs * B::lanes;
  const std::size_t full = nj - nj % W;
  for (std::size_t jj = 0; jj < full; jj += W) {
    for (std::size_t ii = 0; ii < mi; ii += RB::rows) {
      f(std::integral_constant<std::size_t, RB::vecs>{}, ii, jj);
    }
  }
  for (std::size_t jj = full; jj < nj; jj += B::lanes) {
    for (std::size_t ii = 0; ii < mi; ii += RB::rows) {
      f(std::integral_constant<std::size_t, 1>{}, ii, jj);
    }
  }
}

/// Row ii's register block within a split A panel packed at depth kc.
template <class B, bool RealA>
inline const float* a_block(const float* Apack, std::size_t ii, std::size_t kc) noexcept {
  constexpr std::size_t R = RegBlock<B, RealA>::rows;
  return Apack + ii / R * kc * kASliceFloats<R, RealA>;
}

/// The Mtb x Ntb split accumulator tile `acc` += A panel x B panel over kc
/// steps, one register block at a time (for_each_block over the valid mi x
/// nj region).  Apack is pack_a_tile_split<RegBlock::rows> at depth kc and
/// Bpack a split B panel of Ntb columns; `acc` holds two planes: re at
/// [i * Ntb + j], im at [Mtb * Ntb + i * Ntb + j].
template <class Cfg, class B, bool RealA = false>
inline void accumulate_tile_split(float* acc, const float* Apack, const float* Bpack,
                                  std::size_t kc, std::size_t mi, std::size_t nj) {
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t R = RegBlock<B, RealA>::rows;
  static_assert(Mtb % R == 0 && Ntb % B::lanes == 0,
                "register blocks must tile the accumulator tile");
  for_each_block<B, RealA>(mi, nj, [&](auto nv, std::size_t ii, std::size_t jj) {
    constexpr std::size_t NV = decltype(nv)::value;
    float* re = acc + ii * Ntb + jj;
    float* im = re + Mtb * Ntb;
    typename B::cvec r[R][NV];
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t v = 0; v < NV; ++v) {
        r[i][v] = B::load_split(re + i * Ntb + v * B::lanes, im + i * Ntb + v * B::lanes);
      }
    }
    block_steps<B, R, NV, Ntb, RealA>(r, a_block<B, RealA>(Apack, ii, kc), Bpack + jj, kc);
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t v = 0; v < NV; ++v) {
        B::store_split(re + i * Ntb + v * B::lanes, im + i * Ntb + v * B::lanes, r[i][v]);
      }
    }
  });
}

}  // namespace turbofno::gemm
