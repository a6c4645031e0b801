// Scalar reference kernels, compiled with AVX/FMA disabled (CMake appends
// -mno-avx -mno-avx2 -mno-fma to this file only).  Deliberately self-
// contained copies of the seed's loops rather than template instantiations:
// a template instantiated here and in an AVX2 TU would be COMDAT-merged at
// link time and could silently resolve to the AVX2-compiled copy.
#include "simd_scalar_ref.hpp"

#include <algorithm>
#include <cstring>

namespace turbofno::bench::scalar_ref {

namespace {

constexpr std::size_t kMt = 4;
constexpr std::size_t kNt = 4;

void pack_a(c32* Apack, const c32* A, std::size_t lda, std::size_t i0, std::size_t k0,
            std::size_t mi, std::size_t kc) {
  for (std::size_t k = 0; k < kKtb; ++k) {
    c32* dst = Apack + k * kMtb;
    if (k < kc) {
      const c32* src = A + i0 * lda + (k0 + k);
      std::size_t i = 0;
      for (; i < mi; ++i) dst[i] = src[i * lda];
      for (; i < kMtb; ++i) dst[i] = c32{};
    } else {
      std::memset(dst, 0, kMtb * sizeof(c32));
    }
  }
}

void pack_b(c32* Bpack, const c32* B, std::size_t ldb, std::size_t k0, std::size_t j0,
            std::size_t kc, std::size_t nj) {
  for (std::size_t k = 0; k < kKtb; ++k) {
    c32* dst = Bpack + k * kNtb;
    if (k < kc) {
      const c32* src = B + (k0 + k) * ldb + j0;
      std::memcpy(dst, src, nj * sizeof(c32));
      for (std::size_t j = nj; j < kNtb; ++j) dst[j] = c32{};
    } else {
      std::memset(dst, 0, kNtb * sizeof(c32));
    }
  }
}

void micro_accumulate(c32 (&acc)[kMt][kNt], const c32* Apack, const c32* Bpack, std::size_t kc,
                      std::size_t i0, std::size_t j0) {
  for (std::size_t k = 0; k < kc; ++k) {
    const c32* arow = Apack + k * kMtb + i0;
    const c32* brow = Bpack + k * kNtb + j0;
    for (std::size_t i = 0; i < kMt; ++i) {
      const c32 a = arow[i];
      for (std::size_t j = 0; j < kNt; ++j) {
        cmadd(acc[i][j], a, brow[j]);
      }
    }
  }
}

}  // namespace

void micro_cgemm_pass(c32* acc_tile, const c32* Apack, const c32* Bpack, std::size_t kc) {
  for (std::size_t ii = 0; ii < kMtb; ii += kMt) {
    for (std::size_t jj = 0; jj < kNtb; jj += kNt) {
      c32 acc[kMt][kNt];
      for (std::size_t i = 0; i < kMt; ++i)
        for (std::size_t j = 0; j < kNt; ++j) acc[i][j] = acc_tile[(ii + i) * kNtb + (jj + j)];
      micro_accumulate(acc, Apack, Bpack, kc, ii, jj);
      for (std::size_t i = 0; i < kMt; ++i)
        for (std::size_t j = 0; j < kNt; ++j) acc_tile[(ii + i) * kNtb + (jj + j)] = acc[i][j];
    }
  }
}

void cgemm_fused_tiles(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                       std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                       std::size_t ldc) {
  alignas(64) c32 Apack[kMtb * kKtb];
  alignas(64) c32 Bpack[kNtb * kKtb];
  const std::size_t tiles_m = (M + kMtb - 1) / kMtb;
  const std::size_t tiles_n = (N + kNtb - 1) / kNtb;
  for (std::size_t ti = 0; ti < tiles_m; ++ti) {
    for (std::size_t tj = 0; tj < tiles_n; ++tj) {
      const std::size_t i0 = ti * kMtb;
      const std::size_t j0 = tj * kNtb;
      const std::size_t mi = std::min(kMtb, M - i0);
      const std::size_t nj = std::min(kNtb, N - j0);

      c32 acc_tile[kMtb * kNtb];
      std::fill(acc_tile, acc_tile + kMtb * kNtb, c32{});

      for (std::size_t k0 = 0; k0 < K; k0 += kKtb) {
        const std::size_t kc = std::min(kKtb, K - k0);
        pack_a(Apack, A, lda, i0, k0, mi, kc);
        pack_b(Bpack, B, ldb, k0, j0, kc, nj);
        micro_cgemm_pass(acc_tile, Apack, Bpack, kc);
      }

      for (std::size_t i = 0; i < mi; ++i) {
        c32* crow = C + (i0 + i) * ldc + j0;
        const c32* arow = acc_tile + i * kNtb;
        if (beta == c32{0.0f, 0.0f}) {
          for (std::size_t j = 0; j < nj; ++j) crow[j] = alpha * arow[j];
        } else {
          for (std::size_t j = 0; j < nj; ++j) crow[j] = alpha * arow[j] + beta * crow[j];
        }
      }
    }
  }
}

void radix4_pass(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w) {
  const std::size_t half = 2 * l;
  auto tw_at = [&](std::size_t j) -> c32 { return j < half ? w[j] : -w[j - half]; };

  for (std::size_t p = 0; p < l; ++p) {
    const c32 w1 = tw_at(p);
    const c32 w2 = tw_at(2 * p);
    const c32 w3 = tw_at(3 * p);
    const c32* s0 = src + s * p;
    const c32* s1 = src + s * (p + l);
    const c32* s2 = src + s * (p + 2 * l);
    const c32* s3 = src + s * (p + 3 * l);
    c32* d0 = dst + s * 4 * p;
    c32* d1 = d0 + s;
    c32* d2 = d1 + s;
    c32* d3 = d2 + s;
    if (p == 0) {
      for (std::size_t q = 0; q < s; ++q) {
        const c32 a = s0[q];
        const c32 b = s1[q];
        const c32 c = s2[q];
        const c32 d = s3[q];
        const c32 t0 = a + c;
        const c32 t1 = a - c;
        const c32 t2 = b + d;
        const c32 t3 = mul_neg_i(b - d);
        d0[q] = t0 + t2;
        d1[q] = t1 + t3;
        d2[q] = t0 - t2;
        d3[q] = t1 - t3;
      }
      continue;
    }
    for (std::size_t q = 0; q < s; ++q) {
      const c32 a = s0[q];
      const c32 b = s1[q];
      const c32 c = s2[q];
      const c32 d = s3[q];
      const c32 t0 = a + c;
      const c32 t1 = a - c;
      const c32 t2 = b + d;
      const c32 t3 = mul_neg_i(b - d);
      d0[q] = t0 + t2;
      d1[q] = (t1 + t3) * w1;
      d2[q] = (t0 - t2) * w2;
      d3[q] = (t1 - t3) * w3;
    }
  }
}

}  // namespace turbofno::bench::scalar_ref
