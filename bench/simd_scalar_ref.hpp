// Scalar-backend reference kernels for bench_micro_simd.
//
// These are hand copies of the seed's scalar kernels (the exact code the
// TURBOFNO_SIMD=scalar build runs), built in their own translation unit with
// AVX/FMA codegen disabled (see CMakeLists).  Everything else in the bench
// binary is compiled with the active backend's flags, so comparing against
// functions from this TU measures "scalar build vs SIMD build" inside one
// binary instead of "auto-vectorized-with-AVX2 vs explicit-AVX2".
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"

namespace turbofno::bench::scalar_ref {

// FusedTiles (paper Table 1): Mtb = Ntb = 32, Ktb = 8, Mt = Nt = 4.
inline constexpr std::size_t kMtb = 32;
inline constexpr std::size_t kNtb = 32;
inline constexpr std::size_t kKtb = 8;

/// One full accumulator-tile pass of the interleaved scalar micro-kernel
/// over packed panels (the scalar tile_task inner block).
void micro_cgemm_pass(c32* acc_tile, const c32* Apack, const c32* Bpack, std::size_t kc);

/// Whole blocked CGEMM at the FusedTiles config, single-threaded, scalar
/// packing + micro-kernel + epilogue.
void cgemm_fused_tiles(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                       std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                       std::size_t ldc);

/// The seed's Stockham radix-4 forward pass (p == 0 peeled).
void radix4_pass(const c32* src, c32* dst, std::size_t l, std::size_t s, std::span<const c32> w);

}  // namespace turbofno::bench::scalar_ref
