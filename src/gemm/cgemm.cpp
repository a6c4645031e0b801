#include "gemm/cgemm.hpp"

#include <algorithm>
#include <span>
#include <type_traits>

#include "gemm/batched.hpp"
#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

namespace {

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept { return (a + b - 1) / b; }

/// Packed-operand element type: interleaved c32 panels on the scalar
/// backend, split float planes on a SIMD one.
template <class B>
using PackT = std::conditional_t<B::lanes == 1, c32, float>;

/// Elements of one row tile's packed A panel over the whole K: the split
/// planes on a SIMD backend; on the scalar one, Ktb-deep interleaved k-tile
/// panels back to back (the last zero-filled past K).
template <class Cfg, class B, bool RealA>
constexpr std::size_t a_panel_elems(std::size_t K) noexcept {
  if constexpr (B::lanes == 1) return Cfg::Mtb * ceil_div(K, Cfg::Ktb) * Cfg::Ktb;
  return kASliceFloats<Cfg::Mtb, RealA> * K;
}
/// Elements of one C tile's B panel: one k-tile on the scalar backend, the
/// whole K on a SIMD one.
template <class Cfg, class B>
constexpr std::size_t b_panel_elems(std::size_t K) noexcept {
  if constexpr (B::lanes == 1) return Cfg::Ntb * Cfg::Ktb;
  return 2 * Cfg::Ntb * K;
}

/// One parallel chunk's packed A panels, one Mtb x K panel per row tile.
/// A C tile asks for its row tile's panel (`panel`); a panel the chunk has
/// not packed yet is packed right then, just before its first use.  Row
/// tile ti's panel lives in slot ti % slots, so the storage holds exactly
/// what the chunk reads again: every row tile when A is shared by several
/// batch items (the chunk comes back to each row), otherwise the one panel
/// a row's C tiles share.  Private to its chunk, and it lives in the
/// chunk's arena scope, so nothing is cached across calls.
template <class Cfg, class B, bool RealA>
class APanels {
 public:
  APanels(runtime::ScratchArena& arena, std::size_t M, std::size_t K, std::size_t lda,
          std::size_t slots)
      : M_(M),
        K_(K),
        lda_(lda),
        elems_(a_panel_elems<Cfg, B, RealA>(K)),
        panels_(arena.alloc<PackT<B>>(slots * elems_)),
        row_(arena.alloc<std::size_t>(slots)) {
    std::fill(row_.begin(), row_.end(), kNone);
  }

  /// Switches to operand A; a new A drops every packed panel.
  void use(const c32* A) {
    if (A == A_) return;
    A_ = A;
    std::fill(row_.begin(), row_.end(), kNone);
  }

  /// Row tile ti's panel.
  const PackT<B>* panel(std::size_t ti) {
    const std::size_t s = ti % row_.size();
    PackT<B>* dst = panels_.data() + s * elems_;
    if (row_[s] != ti) {
      row_[s] = ti;
      const std::size_t i0 = ti * Cfg::Mtb;
      const std::size_t mi = std::min(Cfg::Mtb, M_ - i0);
      if constexpr (B::lanes == 1) {
        for (std::size_t k0 = 0; k0 < K_; k0 += Cfg::Ktb) {
          pack_a_tile<Cfg::Mtb, Cfg::Ktb, RealA>(dst + k0 * Cfg::Mtb, A_, lda_, i0, k0, mi,
                                                 std::min(Cfg::Ktb, K_ - k0));
        }
      } else {
        pack_a_tile_split<RegBlock<B, RealA>::rows, RealA>(dst, A_, lda_, i0, 0, mi, K_);
      }
    }
    return dst;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t M_;
  std::size_t K_;
  std::size_t lda_;
  std::size_t elems_;
  std::span<PackT<B>> panels_;
  std::span<std::size_t> row_;  // row tile held by each slot
  const c32* A_ = nullptr;
};

// Scalar-backend tile task: interleaved panels and the seed's
// auto-vectorized kernel, the scalar baseline the SIMD path is benched
// against.  A real A arrives as {re, 0} panels through the same complex
// kernel: under FMA contraction a real-only variant would round
// differently from the complex one.
template <class Cfg, class Bk, bool RealA>
void tile_task_scalar(std::size_t ti, std::size_t tj, std::size_t M, std::size_t N, std::size_t K,
                      c32 alpha, APanels<Cfg, Bk, RealA>& a, const c32* B, std::size_t ldb,
                      c32 beta, c32* C, std::size_t ldc, c32* Bpack) {
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t Ktb = Cfg::Ktb;
  constexpr std::size_t Mt = Cfg::Mt;
  constexpr std::size_t Nt = Cfg::Nt;

  // tfno-hot-begin: C-tile body (heap allocation forbidden)
  const std::size_t i0 = ti * Mtb;
  const std::size_t j0 = tj * Ntb;
  const std::size_t mi = std::min(Mtb, M - i0);
  const std::size_t nj = std::min(Ntb, N - j0);
  const c32* Apanel = a.panel(ti);

  // Accumulators for the whole C tile, kept in a stack block; the register
  // micro-tiles stream through it.  (Mtb*Ntb c32 = 8 KiB at 32x32.)
  c32 acc_tile[Mtb * Ntb];
  std::fill(acc_tile, acc_tile + Mtb * Ntb, c32{});

  for (std::size_t k0 = 0; k0 < K; k0 += Ktb) {
    const std::size_t kc = std::min(Ktb, K - k0);
    const c32* Apack = Apanel + k0 * Mtb;
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
  // tfno-hot-end
}

// SIMD tile task: the row tile's split A panel and this C tile's split B
// panel over the whole K, then each register block (RegBlock) runs k =
// 0..K-1 with its accumulators in registers and writes alpha * acc + beta
// * C straight into C, re-interleaving, with masked tails.
template <class Cfg, class B, bool RealA>
void tile_task_simd(std::size_t ti, std::size_t tj, std::size_t M, std::size_t N, std::size_t K,
                    c32 alpha, APanels<Cfg, B, RealA>& a, const c32* Bm, std::size_t ldb,
                    c32 beta, c32* C, std::size_t ldc, float* Bpack) {
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t R = RegBlock<B, RealA>::rows;
  using V = typename B::cvec;
  static_assert(Mtb % R == 0 && Ntb % B::lanes == 0, "register blocks must tile the C tile");

  // tfno-hot-begin: C-tile body (heap allocation forbidden)
  const std::size_t i0 = ti * Mtb;
  const std::size_t j0 = tj * Ntb;
  const std::size_t mi = std::min(Mtb, M - i0);
  const std::size_t nj = std::min(Ntb, N - j0);
  const float* Apack = a.panel(ti);
  pack_b_tile_split<Ntb, B>(Bpack, Bm, ldb, 0, j0, K, nj);

  const V alpha_v = B::broadcast(alpha);
  const V beta_v = B::broadcast(beta);
  const bool beta_zero = beta == c32{0.0f, 0.0f};
  for_each_block<B, RealA>(mi, nj, [&](auto nv, std::size_t ii, std::size_t jj) {
    constexpr std::size_t NV = decltype(nv)::value;
    V r[R][NV];
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t v = 0; v < NV; ++v) r[i][v] = B::zero();
    }
    block_steps<B, R, NV, Ntb, RealA>(r, a_block<B, RealA>(Apack, ii, K), Bpack + jj, K);

    // Epilogue: C = alpha * acc + beta * C on the block's valid region.
    const std::size_t rows = std::min(R, mi - ii);
    for (std::size_t i = 0; i < rows; ++i) {
      c32* crow = C + (i0 + ii + i) * ldc + j0 + jj;
      for (std::size_t v = 0; v < NV && jj + v * B::lanes < nj; ++v) {
        c32* c = crow + v * B::lanes;
        const std::size_t count = std::min(B::lanes, nj - jj - v * B::lanes);
        V res = B::cmul(alpha_v, r[i][v]);
        if (count == B::lanes) {
          if (!beta_zero) res = B::cmadd(res, beta_v, B::load(c));
          B::store(c, res);
        } else {
          if (!beta_zero) res = B::cmadd(res, beta_v, B::load_partial(c, count));
          B::store_partial(c, res, count);
        }
      }
    }
  });
  // tfno-hot-end
}

/// C tile (ti, tj) on the backend's tile task.
template <class Cfg, class B, bool RealA>
void run_tile(std::size_t ti, std::size_t tj, std::size_t M, std::size_t N, std::size_t K,
              c32 alpha, APanels<Cfg, B, RealA>& a, const c32* Bm, std::size_t ldb, c32 beta,
              c32* C, std::size_t ldc, PackT<B>* Bpack) {
  if constexpr (B::lanes == 1) {
    tile_task_scalar<Cfg, B, RealA>(ti, tj, M, N, K, alpha, a, Bm, ldb, beta, C, ldc, Bpack);
  } else {
    tile_task_simd<Cfg, B, RealA>(ti, tj, M, N, K, alpha, a, Bm, ldb, beta, C, ldc, Bpack);
  }
}

/// C_i = alpha * A_i * B_i + beta * C_i for every batch item i, parallel
/// over all (item, C tile) pairs.  Each chunk packs B per C tile and each
/// A panel once (APanels), in its own thread's arena.
template <class Cfg, class B, bool RealA>
void gemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
          const c32* Bm, std::size_t ldb, c32 beta, c32* C, std::size_t ldc, std::size_t batch,
          const BatchedStrides& strides) {
  const std::size_t tiles_m = ceil_div(M, Cfg::Mtb);
  const std::size_t tiles_n = ceil_div(N, Cfg::Ntb);
  const std::size_t tiles = tiles_m * tiles_n;
  // A chunk comes back to a row tile's panel only when A is shared by
  // several items; otherwise a row's C tiles run back to back.
  const std::size_t slots = strides.a == 0 && batch > 1 ? tiles_m : 1;
  runtime::parallel_for(0, batch * tiles, 1, [&](std::size_t lo, std::size_t hi) {
    // tfno-hot-begin: chunk body (heap allocation forbidden)
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    APanels<Cfg, B, RealA> a(arena, M, K, lda, slots);
    const std::span<PackT<B>> Bpack = arena.alloc<PackT<B>>(b_panel_elems<Cfg, B>(K));
    for (std::size_t t = lo; t < hi; ++t) {
      const auto i = static_cast<std::ptrdiff_t>(t / tiles);
      a.use(A + i * strides.a);
      run_tile<Cfg, B, RealA>(t % tiles / tiles_n, t % tiles_n, M, N, K, alpha, a,
                              Bm + i * strides.b, ldb, beta, C + i * strides.c, ldc, Bpack.data());
    }
    // tfno-hot-end
  });
}

/// The tile config for an N-column C.  The FNO GEMM is tall-and-skinny
/// (huge M, moderate N/K); the standalone 64x64 tile amortizes packing best
/// for large M, while the 32x32 fused shape wins when N is small.
bool standalone_tiles(std::size_t N) noexcept { return N >= 48; }

}  // namespace

template <class Cfg, class B, AOperand Kind>
void cgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                         std::size_t lda, const c32* Bm, std::size_t ldb, c32 beta, c32* C,
                         std::size_t ldc) {
  gemm<Cfg, B, Kind == AOperand::RealPart>(M, N, K, alpha, A, lda, Bm, ldb, beta, C, ldc, 1, {});
}

template <class Cfg>
void cgemm_tiled(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                 std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                 std::size_t ldc) {
  cgemm_tiled_backend<Cfg, simd::Active>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
}

// The parameter list shared by every explicit instantiation below.
#define TURBOFNO_CGEMM_ARGS                                                                 \
  std::size_t, std::size_t, std::size_t, c32, const c32*, std::size_t, const c32*,         \
      std::size_t, c32, c32*, std::size_t

// Instantiations for the public shapes + ablation sweep.
template void cgemm_tiled<FusedTiles>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<StandaloneTiles>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesSmall>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesWideN>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesTallM>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesDeepK>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesReg2>(TURBOFNO_CGEMM_ARGS);
template void cgemm_tiled<AblTilesReg8>(TURBOFNO_CGEMM_ARGS);

// Explicit-backend instantiations for the parity tests and the SIMD micro
// bench, for both A operand kinds.  The scalar set always exists; the
// Active set collapses onto it in a scalar-only build.
#define TURBOFNO_CGEMM_BACKEND(Cfg, B)                                                      \
  template void cgemm_tiled_backend<Cfg, B, AOperand::Complex>(TURBOFNO_CGEMM_ARGS);       \
  template void cgemm_tiled_backend<Cfg, B, AOperand::RealPart>(TURBOFNO_CGEMM_ARGS)
TURBOFNO_CGEMM_BACKEND(FusedTiles, simd::ScalarBackend);
TURBOFNO_CGEMM_BACKEND(StandaloneTiles, simd::ScalarBackend);
#if TURBOFNO_SIMD_HAVE_AVX2
TURBOFNO_CGEMM_BACKEND(FusedTiles, simd::Avx2Backend);
TURBOFNO_CGEMM_BACKEND(StandaloneTiles, simd::Avx2Backend);
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
TURBOFNO_CGEMM_BACKEND(FusedTiles, simd::Avx512Backend);
TURBOFNO_CGEMM_BACKEND(StandaloneTiles, simd::Avx512Backend);
#endif
#undef TURBOFNO_CGEMM_BACKEND
#undef TURBOFNO_CGEMM_ARGS

void cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
           const c32* B, std::size_t ldb, c32 beta, c32* C, std::size_t ldc) {
  if (standalone_tiles(N)) {
    cgemm_tiled<StandaloneTiles>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
  } else {
    cgemm_tiled<FusedTiles>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
  }
}

void cgemm_batched(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                   std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides,
                   AOperand a) {
  if (batch == 0 || M == 0 || N == 0) return;
  using simd::Active;
  const bool standalone = standalone_tiles(N);
  const auto run =
      a == AOperand::RealPart
          ? (standalone ? gemm<StandaloneTiles, Active, true> : gemm<FusedTiles, Active, true>)
          : (standalone ? gemm<StandaloneTiles, Active, false> : gemm<FusedTiles, Active, false>);
  run(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, batch, strides);
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
