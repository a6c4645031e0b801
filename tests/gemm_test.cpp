// Blocked CGEMM vs the naive reference over a shape grid, alpha/beta cases,
// and every instantiated tile configuration; the real-A operand and the
// strided-batched entry (a shared or per-item A) bitwise against the plain
// complex GEMM and at 1 vs 4 threads; in an AVX-512 build, that backend
// bitwise against AVX2, across its register block's edges.
#include <gtest/gtest.h>

#include <vector>

#include "gemm/batched.hpp"
#include "gemm/cgemm.hpp"
#include "gemm/reference.hpp"
#include "runtime/parallel.hpp"
#include "tensor/simd.hpp"
#include "test_util.hpp"

namespace turbofno::gemm {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_signal;
using turbofno::testing::same_bits;

struct GemmCase {
  std::size_t m, n, k;
};

double gemm_tol(std::size_t k) { return 4e-5 * std::sqrt(static_cast<double>(k) + 1.0); }

class CgemmShapes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(CgemmShapes, MatchesReference) {
  const auto [M, N, K] = GetParam();
  const auto A = random_signal(M * K, 301u + static_cast<unsigned>(M));
  const auto B = random_signal(K * N, 307u + static_cast<unsigned>(N));
  std::vector<c32> C(M * N, c32{});
  std::vector<c32> Cref(M * N, c32{});
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, C.data(), N);
  cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f},
                  Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K)) << "M=" << M << " N=" << N << " K=" << K;
}

TEST_P(CgemmShapes, ComplexAlphaBetaAccumulate) {
  const auto [M, N, K] = GetParam();
  const auto A = random_signal(M * K, 311u);
  const auto B = random_signal(K * N, 313u);
  const auto C0 = random_signal(M * N, 317u);
  const c32 alpha{0.5f, -1.25f};
  const c32 beta{-0.75f, 0.25f};
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  cgemm(M, N, K, alpha, A.data(), K, B.data(), N, beta, C.data(), N);
  cgemm_reference(M, N, K, alpha, A.data(), K, B.data(), N, beta, Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K));
}

/// A with every imaginary part zeroed: what a RealPart GEMM multiplies by.
std::vector<c32> real_part_copy(const std::vector<c32>& a) {
  std::vector<c32> r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = c32{a[i].re, 0.0f};
  return r;
}

/// The RealPart instantiation on A must equal the complex one on A's
/// {re, 0} copy, bit for bit.
template <class Cfg, class B>
void expect_real_a_bitwise(std::size_t M, std::size_t N, std::size_t K, c32 alpha, c32 beta,
                           const std::vector<c32>& A, const std::vector<c32>& Bm,
                           const std::vector<c32>& C0, const char* what) {
  std::vector<c32> got(C0);
  std::vector<c32> want(C0);
  cgemm_tiled_backend<Cfg, B, AOperand::RealPart>(M, N, K, alpha, A.data(), K, Bm.data(), N, beta,
                                                  got.data(), N);
  cgemm_tiled_backend<Cfg, B>(M, N, K, alpha, real_part_copy(A).data(), K, Bm.data(), N, beta,
                              want.data(), N);
  EXPECT_TRUE(same_bits(got, want)) << what << " " << Cfg::Mtb << "x" << Cfg::Ntb;
}

TEST_P(CgemmShapes, RealAMatchesComplexOnRealPartCopy) {
  const auto [M, N, K] = GetParam();
  const auto A = random_signal(M * K, 391u);
  const auto Bm = random_signal(K * N, 397u);
  const auto C0 = random_signal(M * N, 401u);
  for (const c32 alpha : {c32{1.0f, 0.0f}, c32{0.5f, -1.25f}}) {
    for (const c32 beta : {c32{0.0f, 0.0f}, c32{1.0f, 0.0f}}) {
      SCOPED_TRACE(::testing::Message() << "M=" << M << " N=" << N << " K=" << K << " alpha="
                                        << alpha.re << "," << alpha.im << " beta=" << beta.re);
      expect_real_a_bitwise<FusedTiles, simd::ScalarBackend>(M, N, K, alpha, beta, A, Bm, C0,
                                                             "scalar");
      expect_real_a_bitwise<StandaloneTiles, simd::ScalarBackend>(M, N, K, alpha, beta, A, Bm,
                                                                  C0, "scalar");
      expect_real_a_bitwise<FusedTiles, simd::Active>(M, N, K, alpha, beta, A, Bm, C0, "active");
      expect_real_a_bitwise<StandaloneTiles, simd::Active>(M, N, K, alpha, beta, A, Bm, C0,
                                                           "active");
      // The public entry: cgemm_batched's RealPart operand vs cgemm.
      std::vector<c32> got(C0);
      std::vector<c32> want(C0);
      cgemm_batched(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, got.data(), N, 1, {},
                    AOperand::RealPart);
      cgemm(M, N, K, alpha, real_part_copy(A).data(), K, Bm.data(), N, beta, want.data(), N);
      EXPECT_TRUE(same_bits(got, want)) << "cgemm_batched RealPart";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CgemmShapes,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{4, 4, 4}, GemmCase{7, 5, 3},
                      GemmCase{16, 16, 16}, GemmCase{31, 33, 17}, GemmCase{32, 32, 8},
                      GemmCase{64, 64, 8}, GemmCase{64, 64, 64}, GemmCase{65, 63, 9},
                      GemmCase{128, 32, 8}, GemmCase{33, 128, 130}, GemmCase{256, 16, 16},
                      GemmCase{512, 64, 128},  // tall-and-skinny (the FNO shape)
                      GemmCase{1000, 48, 72}, GemmCase{100, 1, 100}, GemmCase{1, 100, 100}));

// Every instantiated tile configuration must agree with the reference on an
// edge-stressing shape (not a multiple of any tile dim).
template <class Cfg>
void check_tiles() {
  const std::size_t M = 45;
  const std::size_t N = 37;
  const std::size_t K = 19;
  const auto A = random_signal(M * K, 331u);
  const auto B = random_signal(K * N, 337u);
  const auto C0 = random_signal(M * N, 347u);
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  const c32 alpha{1.5f, 0.5f};
  const c32 beta{0.25f, -0.5f};
  cgemm_tiled<Cfg>(M, N, K, alpha, A.data(), K, B.data(), N, beta, C.data(), N);
  cgemm_reference(M, N, K, alpha, A.data(), K, B.data(), N, beta, Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K))
      << "tiles " << Cfg::Mtb << "x" << Cfg::Ntb << "x" << Cfg::Ktb;
}

TEST(CgemmTiles, FusedTableOneShape) { check_tiles<FusedTiles>(); }
TEST(CgemmTiles, StandaloneShape) { check_tiles<StandaloneTiles>(); }
TEST(CgemmTiles, SmallTiles) { check_tiles<AblTilesSmall>(); }
TEST(CgemmTiles, WideN) { check_tiles<AblTilesWideN>(); }
TEST(CgemmTiles, TallM) { check_tiles<AblTilesTallM>(); }
TEST(CgemmTiles, DeepK) { check_tiles<AblTilesDeepK>(); }
TEST(CgemmTiles, SmallRegisterTile) { check_tiles<AblTilesReg2>(); }
TEST(CgemmTiles, LargeRegisterTile) { check_tiles<AblTilesReg8>(); }

TEST(Cgemm, ZeroSizedProblemsAreNoOps) {
  std::vector<c32> C(4, c32{7.0f, 7.0f});
  cgemm(0, 2, 2, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{0.0f, 0.0f}, C.data(), 2);
  EXPECT_EQ(C[0].re, 7.0f);  // untouched
  cgemm(2, 0, 2, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{0.0f, 0.0f}, C.data(), 2);
  EXPECT_EQ(C[1].re, 7.0f);
}

TEST(Cgemm, KZeroScalesByBeta) {
  const std::size_t M = 8;
  const std::size_t N = 8;
  const auto C0 = random_signal(M * N, 353u);
  std::vector<c32> C(C0);
  // K == 0: C = beta * C exactly.
  cgemm(M, N, 0, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{2.0f, 0.0f}, C.data(), N);
  for (std::size_t i = 0; i < M * N; ++i) {
    EXPECT_NEAR(C[i].re, 2.0f * C0[i].re, 1e-6);
    EXPECT_NEAR(C[i].im, 2.0f * C0[i].im, 1e-6);
  }
}

TEST(Cgemm, IdentityBIsACopy) {
  const std::size_t n = 24;
  const auto A = random_signal(n * n, 359u);
  std::vector<c32> I(n * n, c32{});
  for (std::size_t i = 0; i < n; ++i) I[i * n + i] = {1.0f, 0.0f};
  std::vector<c32> C(n * n, c32{});
  cgemm(n, n, n, c32{1.0f, 0.0f}, A.data(), n, I.data(), n, c32{0.0f, 0.0f}, C.data(), n);
  EXPECT_LT(max_err(C, A), 1e-5);
}

TEST(Cgemm, PureImaginaryAlphaRotates) {
  // alpha = i must rotate every output by 90 degrees: C_i = i * (A B).
  const std::size_t M = 12;
  const std::size_t N = 10;
  const std::size_t K = 8;
  const auto A = random_signal(M * K, 367u);
  const auto B = random_signal(K * N, 373u);
  std::vector<c32> C1(M * N, c32{});
  std::vector<c32> Ci(M * N, c32{});
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, C1.data(), N);
  cgemm(M, N, K, c32{0.0f, 1.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, Ci.data(), N);
  for (std::size_t i = 0; i < M * N; ++i) {
    EXPECT_NEAR(Ci[i].re, -C1[i].im, 1e-4);
    EXPECT_NEAR(Ci[i].im, C1[i].re, 1e-4);
  }
}

TEST(Cgemm, LeadingDimensionsLargerThanWidth) {
  const std::size_t M = 10;
  const std::size_t N = 6;
  const std::size_t K = 5;
  const std::size_t lda = K + 3;
  const std::size_t ldb = N + 2;
  const std::size_t ldc = N + 4;
  const auto A = random_signal(M * lda, 379u);
  const auto B = random_signal(K * ldb, 383u);
  const auto C0 = random_signal(M * ldc, 389u);
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), lda, B.data(), ldb, c32{1.0f, 0.0f}, C.data(), ldc);
  cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data(), lda, B.data(), ldb, c32{1.0f, 0.0f},
                  Cref.data(), ldc);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K));
  // Padding columns must be untouched.
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t j = N; j < ldc; ++j) {
      EXPECT_EQ(C[i * ldc + j].re, C0[i * ldc + j].re);
    }
  }
}

TEST(CgemmBatched, IndependentInstancesMatchReference) {
  const std::size_t M = 9;
  const std::size_t N = 11;
  const std::size_t K = 7;
  const std::size_t batch = 5;
  const auto A = random_signal(batch * M * K, 2001u);
  const auto B = random_signal(batch * K * N, 2003u);
  std::vector<c32> C(batch * M * N, c32{});
  gemm::BatchedStrides strides;
  strides.a = static_cast<std::ptrdiff_t>(M * K);
  strides.b = static_cast<std::ptrdiff_t>(K * N);
  strides.c = static_cast<std::ptrdiff_t>(M * N);
  gemm::cgemm_batched(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f},
                      C.data(), N, batch, strides);
  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<c32> ref(M * N, c32{});
    gemm::cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data() + i * M * K, K,
                          B.data() + i * K * N, N, c32{0.0f, 0.0f}, ref.data(), N);
    EXPECT_LT(max_err(std::span<const c32>(C.data() + i * M * N, M * N), ref), 1e-4)
        << "instance " << i;
  }
}

TEST(CgemmBatched, ZeroStrideBroadcastsOperand) {
  // The FNO case: one weight matrix A shared across the batch.
  const std::size_t M = 8;
  const std::size_t N = 16;
  const std::size_t K = 8;
  const std::size_t batch = 4;
  const auto A = random_signal(M * K, 2011u);
  const auto B = random_signal(batch * K * N, 2017u);
  std::vector<c32> C(batch * M * N, c32{});
  gemm::BatchedStrides strides;
  strides.a = 0;  // broadcast
  strides.b = static_cast<std::ptrdiff_t>(K * N);
  strides.c = static_cast<std::ptrdiff_t>(M * N);
  gemm::cgemm_batched(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f},
                      C.data(), N, batch, strides);
  for (std::size_t i = 0; i < batch; ++i) {
    std::vector<c32> ref(M * N, c32{});
    gemm::cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data() + i * K * N, N,
                          c32{0.0f, 0.0f}, ref.data(), N);
    EXPECT_LT(max_err(std::span<const c32>(C.data() + i * M * N, M * N), ref), 1e-4);
  }
}

TEST(CgemmBatched, EmptyBatchIsANoOp) {
  std::vector<c32> C(4, c32{3.0f, 3.0f});
  gemm::cgemm_batched(2, 2, 2, c32{1.0f, 0.0f}, nullptr, 2, nullptr, 2, c32{0.0f, 0.0f},
                      C.data(), 2, 0, {});
  EXPECT_EQ(C[0].re, 3.0f);
}

/// A batched call against one cgemm per item, bit for bit; `a` = RealPart
/// compares against cgemm on Re(A).  An A of M * K elements is shared by
/// every item (stride 0), one of batch * M * K gives each item its own.
void expect_batched_equals_per_item(std::size_t M, std::size_t N, std::size_t K,
                                    const std::vector<c32>& A, AOperand a,
                                    std::size_t batch = 4) {
  const std::size_t a_stride = A.size() == M * K ? 0 : M * K;
  const auto Bm = random_signal(batch * K * N, 409u);
  const auto C0 = random_signal(batch * M * N, 419u);
  const c32 alpha{0.75f, 0.5f};
  const c32 beta{1.0f, 0.0f};
  const std::vector<c32> A_eff = a == AOperand::RealPart ? real_part_copy(A) : A;
  std::vector<c32> want(C0);
  for (std::size_t i = 0; i < batch; ++i) {
    cgemm(M, N, K, alpha, A_eff.data() + i * a_stride, K, Bm.data() + i * K * N, N, beta,
          want.data() + i * M * N, N);
  }
  const BatchedStrides strides{static_cast<std::ptrdiff_t>(a_stride),
                               static_cast<std::ptrdiff_t>(K * N),
                               static_cast<std::ptrdiff_t>(M * N)};
  std::vector<c32> got(C0);
  cgemm_batched(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, got.data(), N, batch, strides,
                a);
  EXPECT_TRUE(same_bits(got, want)) << "M=" << M << " N=" << N << " K=" << K << " batch=" << batch
                                    << " shared=" << (a_stride == 0)
                                    << " real=" << (a == AOperand::RealPart);
}

TEST(CgemmBatched, SharedAPackedOnceMatchesPerItemCgemm) {
  const int saved = runtime::thread_count();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    for (const std::size_t M : {40u, 128u}) {
      // N = 37 runs the 32-wide tiles, 48 and 70 the 64-wide ones.
      for (const std::size_t N : {37u, 48u, 70u}) {
        const std::size_t K = M == 40 ? 40 : 130;
        const auto A = random_signal(M * K, 421u + static_cast<unsigned>(M));
        // A batch of 5 puts chunk boundaries inside items at 4 threads.
        for (const std::size_t batch : {4u, 5u}) {
          expect_batched_equals_per_item(M, N, K, A, AOperand::Complex, batch);
          expect_batched_equals_per_item(M, N, K, A, AOperand::RealPart, batch);
        }
      }
    }
  }
  runtime::set_thread_count(saved);
}

TEST(CgemmBatched, PerItemAMatchesPerItemCgemm) {
  // A chunk that runs several items must repack when A changes between them.
  const int saved = runtime::thread_count();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    for (const std::size_t M : {40u, 128u}) {
      for (const std::size_t N : {37u, 48u, 70u}) {
        const std::size_t K = M == 40 ? 40 : 130;
        const std::size_t batch = 5;
        const auto A = random_signal(batch * M * K, 433u + static_cast<unsigned>(M));
        expect_batched_equals_per_item(M, N, K, A, AOperand::Complex, batch);
        expect_batched_equals_per_item(M, N, K, A, AOperand::RealPart, batch);
      }
    }
  }
  runtime::set_thread_count(saved);
}

TEST(CgemmBatched, RewrittenSharedAIsRepackedOnTheNextCall) {
  // Panels live only for one call: rewriting A between calls must change
  // the next result to exactly the new A's.
  const std::size_t M = 40;
  const std::size_t N = 64;
  const std::size_t K = 40;
  auto A = random_signal(M * K, 431u);
  expect_batched_equals_per_item(M, N, K, A, AOperand::Complex);
  expect_batched_equals_per_item(M, N, K, A, AOperand::RealPart);
  for (c32& x : A) x = c32{-2.0f * x.im, x.re + 0.5f};
  expect_batched_equals_per_item(M, N, K, A, AOperand::Complex);
  expect_batched_equals_per_item(M, N, K, A, AOperand::RealPart);
}

#if TURBOFNO_SIMD_HAVE_AVX512
// The AVX-512 backend runs every C element through the AVX2 lane's
// fnmadd/fmadd sequence in k order and the same cmul/cmadd epilogue, so
// its outputs are the AVX2 backend's bit for bit.
template <class Cfg, AOperand Kind>
void expect_avx512_equals_avx2(std::size_t M, std::size_t N, std::size_t K, c32 alpha, c32 beta,
                               const std::vector<c32>& A, const std::vector<c32>& Bm,
                               const std::vector<c32>& C0) {
  std::vector<c32> got(C0);
  std::vector<c32> want(C0);
  cgemm_tiled_backend<Cfg, simd::Avx512Backend, Kind>(M, N, K, alpha, A.data(), K, Bm.data(), N,
                                                      beta, got.data(), N);
  cgemm_tiled_backend<Cfg, simd::Avx2Backend, Kind>(M, N, K, alpha, A.data(), K, Bm.data(), N,
                                                    beta, want.data(), N);
  EXPECT_TRUE(same_bits(got, want)) << Cfg::Mtb << "x" << Cfg::Ntb
                                    << " real=" << (Kind == AOperand::RealPart);
}

TEST(CgemmAvx512, BitwiseEqualsAvx2) {
  // M/N/K off every multiple of 16 (plus whole-tile shapes), so the masked
  // epilogue tails, padded register blocks and partial k-tiles all run.
  const GemmCase cases[] = {{1, 1, 1},    {3, 5, 7},     {17, 9, 33},  {33, 31, 13},
                            {45, 37, 19}, {64, 64, 64},  {65, 33, 17}, {40, 48, 40},
                            {100, 70, 130}, {129, 17, 24}};
  unsigned seed = 4001;
  for (const auto& [M, N, K] : cases) {
    const auto A = random_signal(M * K, ++seed);
    const auto Bm = random_signal(K * N, ++seed);
    const auto C0 = random_signal(M * N, ++seed);
    for (const c32 alpha : {c32{1.0f, 0.0f}, c32{0.5f, -1.25f}}) {
      for (const c32 beta : {c32{0.0f, 0.0f}, c32{1.0f, 0.0f}, c32{-0.75f, 0.25f}}) {
        SCOPED_TRACE(::testing::Message() << "M=" << M << " N=" << N << " K=" << K << " alpha="
                                          << alpha.re << "," << alpha.im << " beta=" << beta.re
                                          << "," << beta.im);
        expect_avx512_equals_avx2<FusedTiles, AOperand::Complex>(M, N, K, alpha, beta, A, Bm, C0);
        expect_avx512_equals_avx2<FusedTiles, AOperand::RealPart>(M, N, K, alpha, beta, A, Bm,
                                                                  C0);
        expect_avx512_equals_avx2<StandaloneTiles, AOperand::Complex>(M, N, K, alpha, beta, A, Bm,
                                                                      C0);
        expect_avx512_equals_avx2<StandaloneTiles, AOperand::RealPart>(M, N, K, alpha, beta, A,
                                                                       Bm, C0);
      }
    }
  }
}

/// One item through the AVX2 backend, on the tiles cgemm picks for N
/// (N >= 48 runs the 64-wide ones).
void avx2_cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                const c32* Bm, c32 beta, c32* C, AOperand a) {
  const bool wide = N >= 48;
  if (a == AOperand::RealPart) {
    (wide ? cgemm_tiled_backend<StandaloneTiles, simd::Avx2Backend, AOperand::RealPart>
          : cgemm_tiled_backend<FusedTiles, simd::Avx2Backend, AOperand::RealPart>)(
        M, N, K, alpha, A, K, Bm, N, beta, C, N);
  } else {
    (wide ? cgemm_tiled_backend<StandaloneTiles, simd::Avx2Backend, AOperand::Complex>
          : cgemm_tiled_backend<FusedTiles, simd::Avx2Backend, AOperand::Complex>)(
        M, N, K, alpha, A, K, Bm, N, beta, C, N);
  }
}

TEST(CgemmAvx512, BatchedSharedAndPerItemAEqualAvx2) {
  // The library's batched entry (the AVX-512 backend in this build) with a
  // shared and a per-item A, against one AVX2 GEMM per item.
  const int saved = runtime::thread_count();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    for (const std::size_t M : {40u, 129u}) {
      for (const std::size_t N : {37u, 48u, 70u}) {
        const std::size_t K = M == 40 ? 40 : 130;
        const std::size_t batch = 5;
        const auto Bm = random_signal(batch * K * N, 4101u);
        const auto C0 = random_signal(batch * M * N, 4103u);
        const c32 alpha{0.75f, 0.5f};
        for (const bool shared : {true, false}) {
          const std::size_t a_stride = shared ? 0 : M * K;
          const auto A = random_signal(shared ? M * K : batch * M * K, 4107u);
          const BatchedStrides strides{static_cast<std::ptrdiff_t>(a_stride),
                                       static_cast<std::ptrdiff_t>(K * N),
                                       static_cast<std::ptrdiff_t>(M * N)};
          for (const AOperand a : {AOperand::Complex, AOperand::RealPart}) {
            for (const c32 beta : {c32{0.0f, 0.0f}, c32{1.0f, 0.0f}, c32{-0.75f, 0.25f}}) {
              std::vector<c32> got(C0);
              std::vector<c32> want(C0);
              cgemm_batched(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, got.data(), N,
                            batch, strides, a);
              for (std::size_t i = 0; i < batch; ++i) {
                avx2_cgemm(M, N, K, alpha, A.data() + i * a_stride, Bm.data() + i * K * N, beta,
                           want.data() + i * M * N, a);
              }
              EXPECT_TRUE(same_bits(got, want))
                  << "threads=" << threads << " M=" << M << " N=" << N << " K=" << K
                  << " shared=" << shared << " real=" << (a == AOperand::RealPart)
                  << " beta=" << beta.re << "," << beta.im;
            }
          }
        }
      }
    }
  }
  runtime::set_thread_count(saved);
}
TEST(CgemmAvx512, EdgeShapesBitwiseEqualAvx2) {
  // The AVX-512 register block is 8 rows x 2 vectors (1 for a real A), with
  // one-vector blocks over a narrower column tail; AVX2's is 4 x 1.  M, N
  // and K sit on and off both blocks' edges and both tile configs (N >= 48
  // runs the 64-wide tiles), with a non-unit alpha, every beta case, both A
  // kinds and a shared and a per-item A.
  const std::size_t batch = 2;
  const c32 alpha{0.75f, -0.5f};
  unsigned seed = 4201;
  for (const std::size_t M : {1u, 5u, 7u, 8u, 9u, 13u, 37u, 40u, 41u, 128u}) {
    for (const std::size_t N : {1u, 15u, 16u, 17u, 33u, 2048u}) {
      for (const std::size_t K : {1u, 7u, 40u, 128u, 300u}) {
        const auto A = random_signal(batch * M * K, ++seed);
        const auto Bm = random_signal(batch * K * N, ++seed);
        const auto C0 = random_signal(batch * M * N, ++seed);
        for (const bool shared : {true, false}) {
          const std::size_t a_stride = shared ? 0 : M * K;
          const BatchedStrides strides{static_cast<std::ptrdiff_t>(a_stride),
                                       static_cast<std::ptrdiff_t>(K * N),
                                       static_cast<std::ptrdiff_t>(M * N)};
          for (const AOperand a : {AOperand::Complex, AOperand::RealPart}) {
            for (const c32 beta : {c32{0.0f, 0.0f}, c32{1.0f, 0.0f}, c32{0.5f, -0.25f}}) {
              std::vector<c32> got(C0);
              std::vector<c32> want(C0);
              cgemm_batched(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, got.data(), N,
                            batch, strides, a);
              for (std::size_t i = 0; i < batch; ++i) {
                avx2_cgemm(M, N, K, alpha, A.data() + i * a_stride, Bm.data() + i * K * N, beta,
                           want.data() + i * M * N, a);
              }
              ASSERT_TRUE(same_bits(got, want))
                  << "M=" << M << " N=" << N << " K=" << K << " shared=" << shared
                  << " real=" << (a == AOperand::RealPart) << " beta=" << beta.re << ","
                  << beta.im;
            }
          }
        }
      }
    }
  }
}
#endif  // TURBOFNO_SIMD_HAVE_AVX512

TEST(CgemmBatched, OneAndFourThreadsSameBits) {
  // The parallel split is over (item, C tile) pairs and every C element is
  // one tile's k-ordered chain, so the thread count moves no bits.  Shapes:
  // the Fig 19 residual slab, fno1d's four-item residual, and an odd one.
  const GemmCase cases[] = {{40, 2048, 40}, {128, 128, 128}, {37, 70, 41}};
  const std::size_t batch = 4;
  const int saved = runtime::thread_count();
  unsigned seed = 4301;
  for (const auto& [M, N, K] : cases) {
    const auto A = random_signal(batch * M * K, ++seed);
    const auto Bm = random_signal(batch * K * N, ++seed);
    const auto C0 = random_signal(batch * M * N, ++seed);
    for (const bool shared : {true, false}) {
      const BatchedStrides strides{static_cast<std::ptrdiff_t>(shared ? 0 : M * K),
                                   static_cast<std::ptrdiff_t>(K * N),
                                   static_cast<std::ptrdiff_t>(M * N)};
      for (const AOperand a : {AOperand::Complex, AOperand::RealPart}) {
        std::vector<c32> out[2] = {C0, C0};
        for (const int t : {0, 1}) {
          runtime::set_thread_count(t == 0 ? 1 : 4);
          cgemm_batched(M, N, K, c32{0.75f, -0.5f}, A.data(), K, Bm.data(), N,
                        c32{0.5f, -0.25f}, out[t].data(), N, batch, strides, a);
        }
        EXPECT_TRUE(same_bits(out[0], out[1]))
            << "M=" << M << " N=" << N << " K=" << K << " shared=" << shared
            << " real=" << (a == AOperand::RealPart);
      }
    }
  }
  runtime::set_thread_count(saved);
}

TEST(CgemmBytes, TileShapeDrivesTrafficModel) {
  const TileShape small{32, 32, 8, 4, 4};
  const TileShape big{64, 64, 8, 4, 4};
  // Larger tiles -> fewer panel re-reads -> fewer modeled bytes.
  EXPECT_LT(cgemm_bytes(1024, 256, 64, big, false), cgemm_bytes(1024, 256, 64, small, false));
  EXPECT_GT(cgemm_bytes(64, 64, 64, small, true), cgemm_bytes(64, 64, 64, small, false));
}

}  // namespace
}  // namespace turbofno::gemm
