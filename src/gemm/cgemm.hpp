// Blocked complex single-precision GEMM (row-major).
//
// The public entry point dispatches to a templated tiled kernel; the tile
// shapes are the paper's Table 1 configurations, plus a template header
// (`cgemm_tiled`) so benches can sweep alternatives (Section 3.1's "fully
// templated CGEMM kernel").
//
// A panels (one row tile over the whole K) are packed once and streamed
// against every C tile that reads them (the GotoBLAS layout; the paper's
// CGEMM stages A in shared memory the same way), never once per C tile.
// The work is split into parallel chunks of consecutive C tiles; each
// chunk packs a panel in its own thread's scratch arena the first time one
// of its C tiles needs it, and keeps it while a later C tile of the chunk,
// or a later item of a cgemm_batched call with a shared A, reads it again.
// On one thread that is exactly once per call.  Nothing is cached across
// calls, so a caller may rewrite A between calls.  B is packed per C tile.
//
// On a SIMD backend a C tile packs its B panel once for the whole K, then
// runs each register block (gemm::RegBlock: 8 rows x 2 zmm vectors on
// avx512, 4 x 1 on avx2) over k = 0..K-1 with its accumulators in
// registers and writes alpha * acc + beta * C straight into C (Goto & van
// de Geijn, "Anatomy of High-Performance Matrix Multiplication", TOMS
// 2008).  Every backend sums each output in k order with the same
// multiply-adds, so avx512 and avx2 agree bit for bit.  The scalar backend
// runs the seed's Ktb-tiled kernel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gemm/config.hpp"
#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

/// What the A operand holds.  `RealPart` reads only A's real parts, as if
/// every A.im were zero; the micro-kernel then skips the A.im FMAs, with
/// outputs bit-identical to the complex GEMM on a {re, 0} copy of A for
/// finite data.
enum class AOperand { Complex, RealPart };

/// C[MxN] = alpha * A[MxK] * B[KxN] + beta * C   (row-major).
/// Parallelized over C tiles; deterministic for a fixed tile config.
/// Runs the SIMD backend the library was compiled with (simd::Active).
void cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
           const c32* B, std::size_t ldb, c32 beta, c32* C, std::size_t ldc);

/// Same kernel with an explicit tile configuration (for the ablation bench).
template <class Cfg>
void cgemm_tiled(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                 std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                 std::size_t ldc);

/// Explicit-backend variant so benches and parity tests can pit the scalar
/// and SIMD code paths against each other inside one binary.  Instantiated
/// in cgemm.cpp for {FusedTiles, StandaloneTiles} x {ScalarBackend, Active}
/// x {Complex, RealPart}.
template <class Cfg, class Backend, AOperand Kind = AOperand::Complex>
void cgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                         std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                         std::size_t ldc);

// Explicitly instantiated tile configurations (defined in cgemm.cpp).
using AblTilesSmall = Tiles<16, 16, 8, 4, 4>;
using AblTilesWideN = Tiles<32, 64, 8, 4, 4>;
using AblTilesTallM = Tiles<64, 32, 8, 4, 4>;
using AblTilesDeepK = Tiles<32, 32, 16, 4, 4>;
using AblTilesReg2 = Tiles<32, 32, 8, 2, 2>;
using AblTilesReg8 = Tiles<64, 64, 8, 8, 8>;

/// Bytes a cache-oblivious observer would count for one blocked CGEMM pass
/// (A and B read once per C tile row/col, C read+written once).
std::uint64_t cgemm_bytes(std::size_t M, std::size_t N, std::size_t K, const TileShape& tiles,
                          bool beta_nonzero) noexcept;

}  // namespace turbofno::gemm
