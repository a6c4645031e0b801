#include "gemm/cgemm.hpp"

#include <algorithm>

#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "runtime/parallel.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

namespace {

// Scalar-backend tile task: interleaved panels, the seed's auto-vectorized
// kernel.  Kept verbatim as the scalar baseline the SIMD path is benched
// against.
template <class Cfg>
void tile_task_scalar(std::size_t ti, std::size_t tj, std::size_t M, std::size_t N, std::size_t K,
                      c32 alpha, const c32* A, std::size_t lda, const c32* B, std::size_t ldb,
                      c32 beta, c32* C, std::size_t ldc, c32* Apack, c32* Bpack) {
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t Ktb = Cfg::Ktb;
  constexpr std::size_t Mt = Cfg::Mt;
  constexpr std::size_t Nt = Cfg::Nt;

  const std::size_t i0 = ti * Mtb;
  const std::size_t j0 = tj * Ntb;
  const std::size_t mi = std::min(Mtb, M - i0);
  const std::size_t nj = std::min(Ntb, N - j0);

  // Accumulators for the whole C tile, kept in a stack block; the register
  // micro-tiles stream through it.  (Mtb*Ntb c32 = 8 KiB at 32x32.)
  c32 acc_tile[Mtb * Ntb];
  std::fill(acc_tile, acc_tile + Mtb * Ntb, c32{});

  for (std::size_t k0 = 0; k0 < K; k0 += Ktb) {
    const std::size_t kc = std::min(Ktb, K - k0);
    pack_a_tile<Mtb, Ktb>(Apack, A, lda, i0, k0, mi, kc);
    pack_b_tile<Ntb, Ktb>(Bpack, B, ldb, k0, j0, kc, nj);

    for (std::size_t ii = 0; ii < Mtb; ii += Mt) {
      for (std::size_t jj = 0; jj < Ntb; jj += Nt) {
        c32 acc[Mt][Nt];
        for (std::size_t i = 0; i < Mt; ++i)
          for (std::size_t j = 0; j < Nt; ++j) acc[i][j] = acc_tile[(ii + i) * Ntb + (jj + j)];
        micro_accumulate<Mt, Nt, Mtb, Ntb>(acc, Apack, Bpack, kc, ii, jj);
        for (std::size_t i = 0; i < Mt; ++i)
          for (std::size_t j = 0; j < Nt; ++j) acc_tile[(ii + i) * Ntb + (jj + j)] = acc[i][j];
      }
    }
  }

  // Epilogue: C = alpha * acc + beta * C on the valid region.
  for (std::size_t i = 0; i < mi; ++i) {
    c32* crow = C + (i0 + i) * ldc + j0;
    const c32* arow = acc_tile + i * Ntb;
    if (beta == c32{0.0f, 0.0f}) {
      for (std::size_t j = 0; j < nj; ++j) crow[j] = alpha * arow[j];
    } else {
      for (std::size_t j = 0; j < nj; ++j) crow[j] = alpha * arow[j] + beta * crow[j];
    }
  }
}

// SIMD tile task: split-complex panels and accumulator planes; the register
// block runs the vector micro-kernel, the epilogue re-interleaves into C
// with masked tails.
template <class Cfg, class B>
void tile_task_simd(std::size_t ti, std::size_t tj, std::size_t M, std::size_t N, std::size_t K,
                    c32 alpha, const c32* A, std::size_t lda, const c32* Bm, std::size_t ldb,
                    c32 beta, c32* C, std::size_t ldc, float* Apack, float* Bpack) {
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t Ktb = Cfg::Ktb;
  constexpr std::size_t Mt = Cfg::Mt;
  constexpr std::size_t JW = kJBlock<B, Cfg::Nt>;
  static_assert(Ntb % JW == 0, "j-block must divide the tile width");
  using V = typename B::cvec;

  const std::size_t i0 = ti * Mtb;
  const std::size_t j0 = tj * Ntb;
  const std::size_t mi = std::min(Mtb, M - i0);
  const std::size_t nj = std::min(Ntb, N - j0);

  // Split accumulator planes for the whole C tile (re plane then im plane;
  // same bytes as the interleaved tile).
  alignas(kBufferAlignment) float acc_tile[2 * Mtb * Ntb];
  std::fill(acc_tile, acc_tile + 2 * Mtb * Ntb, 0.0f);

  for (std::size_t k0 = 0; k0 < K; k0 += Ktb) {
    const std::size_t kc = std::min(Ktb, K - k0);
    pack_a_tile_split<Mtb, Ktb>(Apack, A, lda, i0, k0, mi, kc);
    pack_b_tile_split<Ntb, Ktb, B>(Bpack, Bm, ldb, k0, j0, kc, nj);

    // An edge tile skips the register blocks that lie wholly in its zero
    // padding: they never reach C (e.g. rows 40..63 of a 40-row GEMM).
    for (std::size_t ii = 0; ii < mi; ii += Mt) {
      for (std::size_t jj = 0; jj < nj; jj += JW) {
        micro_accumulate_split<B, Mt, JW, Mtb, Ntb>(acc_tile, Apack, Bpack, kc, ii, jj);
      }
    }
  }

  // Epilogue: C = alpha * acc + beta * C, re-interleaving the split planes.
  const V alpha_v = B::broadcast(alpha);
  const V beta_v = B::broadcast(beta);
  const bool beta_zero = beta == c32{0.0f, 0.0f};
  for (std::size_t i = 0; i < mi; ++i) {
    c32* crow = C + (i0 + i) * ldc + j0;
    const float* are = acc_tile + i * Ntb;
    const float* aim = acc_tile + Mtb * Ntb + i * Ntb;
    std::size_t j = 0;
    for (; j + B::lanes <= nj; j += B::lanes) {
      V res = B::cmul(alpha_v, B::load_split(are + j, aim + j));
      if (!beta_zero) res = B::cmadd(res, beta_v, B::load(crow + j));
      B::store(crow + j, res);
    }
    if (j < nj) {
      const std::size_t rem = nj - j;
      V res = B::cmul(alpha_v, B::load_split(are + j, aim + j));
      if (!beta_zero) res = B::cmadd(res, beta_v, B::load_partial(crow + j, rem));
      B::store_partial(crow + j, res, rem);
    }
  }
}

}  // namespace

template <class Cfg, class B>
void cgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                         std::size_t lda, const c32* Bm, std::size_t ldb, c32 beta, c32* C,
                         std::size_t ldc) {
  if (M == 0 || N == 0) return;
  const std::size_t tiles_m = (M + Cfg::Mtb - 1) / Cfg::Mtb;
  const std::size_t tiles_n = (N + Cfg::Ntb - 1) / Cfg::Ntb;

  runtime::parallel_for(0, tiles_m * tiles_n, 1, [&](std::size_t lo, std::size_t hi) {
    if constexpr (B::lanes == 1) {
      AlignedBuffer<c32> Apack(Cfg::Mtb * Cfg::Ktb);
      AlignedBuffer<c32> Bpack(Cfg::Ntb * Cfg::Ktb);
      for (std::size_t t = lo; t < hi; ++t) {
        tile_task_scalar<Cfg>(t / tiles_n, t % tiles_n, M, N, K, alpha, A, lda, Bm, ldb, beta, C,
                              ldc, Apack.data(), Bpack.data());
      }
    } else {
      AlignedBuffer<float> Apack(2 * Cfg::Mtb * Cfg::Ktb);
      AlignedBuffer<float> Bpack(2 * Cfg::Ntb * Cfg::Ktb);
      for (std::size_t t = lo; t < hi; ++t) {
        tile_task_simd<Cfg, B>(t / tiles_n, t % tiles_n, M, N, K, alpha, A, lda, Bm, ldb, beta, C,
                               ldc, Apack.data(), Bpack.data());
      }
    }
  });
}

template <class Cfg>
void cgemm_tiled(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                 std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                 std::size_t ldc) {
  cgemm_tiled_backend<Cfg, simd::Active>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
}

// Instantiations for the public shapes + ablation sweep.
template void cgemm_tiled<FusedTiles>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                      std::size_t, const c32*, std::size_t, c32, c32*,
                                      std::size_t);
template void cgemm_tiled<StandaloneTiles>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                           std::size_t, const c32*, std::size_t, c32, c32*,
                                           std::size_t);
template void cgemm_tiled<AblTilesSmall>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesWideN>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesTallM>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesDeepK>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesReg2>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                        std::size_t, const c32*, std::size_t, c32, c32*,
                                        std::size_t);
template void cgemm_tiled<AblTilesReg8>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                        std::size_t, const c32*, std::size_t, c32, c32*,
                                        std::size_t);

// Explicit-backend instantiations for the parity tests and the SIMD micro
// bench.  The scalar pair always exists; the Active pair collapses onto it
// in a scalar-only build.
template void cgemm_tiled_backend<FusedTiles, simd::ScalarBackend>(std::size_t, std::size_t,
                                                                   std::size_t, c32, const c32*,
                                                                   std::size_t, const c32*,
                                                                   std::size_t, c32, c32*,
                                                                   std::size_t);
template void cgemm_tiled_backend<StandaloneTiles, simd::ScalarBackend>(std::size_t, std::size_t,
                                                                        std::size_t, c32,
                                                                        const c32*, std::size_t,
                                                                        const c32*, std::size_t,
                                                                        c32, c32*, std::size_t);
#if TURBOFNO_SIMD_HAVE_AVX2
template void cgemm_tiled_backend<FusedTiles, simd::Avx2Backend>(std::size_t, std::size_t,
                                                                 std::size_t, c32, const c32*,
                                                                 std::size_t, const c32*,
                                                                 std::size_t, c32, c32*,
                                                                 std::size_t);
template void cgemm_tiled_backend<StandaloneTiles, simd::Avx2Backend>(std::size_t, std::size_t,
                                                                      std::size_t, c32,
                                                                      const c32*, std::size_t,
                                                                      const c32*, std::size_t,
                                                                      c32, c32*, std::size_t);
#endif

void cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
           const c32* B, std::size_t ldb, c32 beta, c32* C, std::size_t ldc) {
  // The FNO GEMM is tall-and-skinny (huge M, moderate N/K); the standalone
  // 64x64 tile amortizes packing best for large M, while the 32x32 fused
  // shape wins when N is small.
  if (N >= 48) {
    cgemm_tiled<StandaloneTiles>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
  } else {
    cgemm_tiled<FusedTiles>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
  }
}

std::uint64_t cgemm_bytes(std::size_t M, std::size_t N, std::size_t K, const TileShape& tiles,
                          bool beta_nonzero) noexcept {
  const std::uint64_t tiles_m = (M + tiles.mtb - 1) / tiles.mtb;
  const std::uint64_t tiles_n = (N + tiles.ntb - 1) / tiles.ntb;
  // Each C tile reads its A panel row and B panel column once.
  const std::uint64_t a_reads = tiles_n * (static_cast<std::uint64_t>(M) * K);
  const std::uint64_t b_reads = tiles_m * (static_cast<std::uint64_t>(K) * N);
  const std::uint64_t c_write = static_cast<std::uint64_t>(M) * N;
  const std::uint64_t c_read = beta_nonzero ? c_write : 0;
  return (a_reads + b_reads + c_read + c_write) * sizeof(c32);
}

}  // namespace turbofno::gemm
