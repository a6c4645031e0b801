// Explicit SIMD complex-arithmetic layer.
//
// The hot kernels (Stockham/DIF butterflies, CGEMM micro-kernel, fused
// rank updates) operate on complex lanes through one `cvec` interface with
// three backends:
//
//   ScalarBackend  one complex per "vector"; compiles to exactly the scalar
//                  code the seed shipped.  Always available.
//   Avx2Backend    8 complex lanes held split-complex (one __m256 of reals,
//                  one of imaginaries) so a complex multiply is 2 mul + 2 FMA
//                  with no shuffles.  Compiled only when the TU is built with
//                  -mavx2 -mfma (CMake option TURBOFNO_SIMD=avx2/auto).
//   Avx512Backend  16 split-complex lanes (__m512 planes) for the `cvec`
//                  kernels; the packed `pvec` half is Avx2Backend's.
//                  Compiled only under TURBOFNO_SIMD=avx512 (or auto on an
//                  AVX-512 build host); outputs are bit-identical to avx2.
//
// Data in memory stays interleaved (AoS, `c32`) at API boundaries;
// `load`/`store` de/re-interleave in registers.  The packed GEMM tiles and
// fused accumulators instead keep split (SoA) float planes and use the
// `load_split` family, which is pure vertical arithmetic.
//
// Backend selection is compile-time: `simd::Active` is the backend every
// kernel TU uses; `simd::active_backend()` reports it at runtime so benches
// and tests can prove which code ran.  Defining TURBOFNO_SIMD_FORCE_SCALAR
// (CMake -DTURBOFNO_SIMD=scalar) pins `Active` to the scalar backend even on
// AVX2 hardware; TURBOFNO_SIMD_HAVE_AVX512=1 (CMake resolved avx512)
// selects the AVX-512 one.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/complex.hpp"

#if !defined(TURBOFNO_SIMD_FORCE_SCALAR) && defined(__AVX2__) && defined(__FMA__)
#define TURBOFNO_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#else
#define TURBOFNO_SIMD_HAVE_AVX2 0
#endif

// AVX-512 is opted into only by the build (CMake defines
// TURBOFNO_SIMD_HAVE_AVX512=1 when it resolved TURBOFNO_SIMD=avx512), never
// by the compiler's predefined __AVX512F__: a -march=native build on an
// AVX-512 host with TURBOFNO_SIMD=avx2 must still run the AVX2 backend.
#if !defined(TURBOFNO_SIMD_HAVE_AVX512)
#define TURBOFNO_SIMD_HAVE_AVX512 0
#elif TURBOFNO_SIMD_HAVE_AVX512 && !(TURBOFNO_SIMD_HAVE_AVX2 && defined(__AVX512F__))
#error "TURBOFNO_SIMD_HAVE_AVX512 needs -mavx2 -mfma -mavx512f"
#endif

namespace turbofno::simd {

// ------------------------------------------------------------------- scalar

struct ScalarBackend {
  static constexpr std::size_t lanes = 1;
  static constexpr const char* name() noexcept { return "scalar"; }

  struct cvec {
    float re;
    float im;
  };

  static cvec zero() noexcept { return {0.0f, 0.0f}; }
  static cvec broadcast(c32 v) noexcept { return {v.re, v.im}; }
  static cvec broadcast_split(float re, float im) noexcept { return {re, im}; }

  /// Interleaved (AoS) loads/stores of `lanes` consecutive c32.
  static cvec load(const c32* p) noexcept { return {p->re, p->im}; }
  static void store(c32* p, cvec v) noexcept {
    p->re = v.re;
    p->im = v.im;
  }
  /// Masked tail ops: only the first `count` (< lanes is allowed, 0 is a
  /// no-op) complex elements are touched; untouched lanes read as zero.
  static cvec load_partial(const c32* p, std::size_t count) noexcept {
    return count != 0 ? load(p) : zero();
  }
  static void store_partial(c32* p, cvec v, std::size_t count) noexcept {
    if (count != 0) store(p, v);
  }

  /// Split (SoA) loads/stores from separate re/im planes.
  static cvec load_split(const float* re, const float* im) noexcept { return {*re, *im}; }
  static void store_split(float* re, float* im, cvec v) noexcept {
    *re = v.re;
    *im = v.im;
  }

  static cvec add(cvec a, cvec b) noexcept { return {a.re + b.re, a.im + b.im}; }
  static cvec sub(cvec a, cvec b) noexcept { return {a.re - b.re, a.im - b.im}; }
  static cvec cmul(cvec a, cvec b) noexcept {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
  /// acc + a * b (complex FMA).  The product is summed before it meets
  /// acc, as c32's cmadd does, so the split and interleaved GEMM kernels
  /// round alike.
  static cvec cmadd(cvec acc, cvec a, cvec b) noexcept {
    return {acc.re + (a.re * b.re - a.im * b.im), acc.im + (a.re * b.im + a.im * b.re)};
  }
  static cvec scale(cvec a, float s) noexcept { return {a.re * s, a.im * s}; }
  static cvec mul_neg_i(cvec a) noexcept { return {a.im, -a.re}; }
  static cvec mul_pos_i(cvec a) noexcept { return {-a.im, a.re}; }

  // Packed (interleaved) complex vectors: `planes` complexes kept in AoS
  // order.  Add/sub/load/store are shuffle-free, which makes this the right
  // representation for butterfly networks (mostly +/-, one twiddle multiply);
  // the split `cvec` form wins when the loop is broadcast-FMA dominated
  // (GEMM).  Scalar backend: one complex, plain c32 arithmetic.
  static constexpr std::size_t planes = 1;
  using pvec = c32;
  static pvec pload(const c32* p) noexcept { return *p; }
  static void pstore(c32* p, pvec v) noexcept { *p = v; }
  static pvec pset1(c32 v) noexcept { return v; }
  static pvec padd(pvec a, pvec b) noexcept { return a + b; }
  static pvec psub(pvec a, pvec b) noexcept { return a - b; }
  static pvec pcmul(pvec a, pvec b) noexcept { return a * b; }
  /// acc + a * b on packed lanes.  (Spelled out: the class-scope cvec
  /// overloads would otherwise shadow the c32 friends.)
  static pvec pcmadd(pvec acc, pvec a, pvec b) noexcept {
    return {acc.re + a.re * b.re - a.im * b.im, acc.im + a.re * b.im + a.im * b.re};
  }
  static pvec pmul_neg_i(pvec a) noexcept { return {a.im, -a.re}; }
  static pvec pmul_pos_i(pvec a) noexcept { return {-a.im, a.re}; }
  static pvec pscale(pvec a, float s) noexcept { return {a.re * s, a.im * s}; }
  static pvec pconj(pvec a) noexcept { return {a.re, -a.im}; }
  /// Reverses the complex-lane order (lane k <- lane planes-1-k); the
  /// descending-index operand of conjugate-symmetric untangle loops.
  static pvec preverse(pvec a) noexcept { return a; }
};

// --------------------------------------------------------------------- avx2

#if TURBOFNO_SIMD_HAVE_AVX2

struct Avx2Backend {
  static constexpr std::size_t lanes = 8;
  static constexpr const char* name() noexcept { return "avx2"; }

  struct cvec {
    __m256 re;
    __m256 im;
  };

  static cvec zero() noexcept { return {_mm256_setzero_ps(), _mm256_setzero_ps()}; }
  static cvec broadcast(c32 v) noexcept {
    return {_mm256_set1_ps(v.re), _mm256_set1_ps(v.im)};
  }
  static cvec broadcast_split(float re, float im) noexcept {
    return {_mm256_set1_ps(re), _mm256_set1_ps(im)};
  }

  /// Deinterleave 8 consecutive c32 (16 floats) into split registers.
  static cvec load(const c32* p) noexcept {
    const float* f = reinterpret_cast<const float*>(p);
    const __m256 a = _mm256_loadu_ps(f);      // r0 i0 r1 i1 r2 i2 r3 i3
    const __m256 b = _mm256_loadu_ps(f + 8);  // r4 i4 r5 i5 r6 i6 r7 i7
    return deinterleave(a, b);
  }
  static void store(c32* p, cvec v) noexcept {
    __m256 a, b;
    interleave(v, a, b);
    float* f = reinterpret_cast<float*>(p);
    _mm256_storeu_ps(f, a);
    _mm256_storeu_ps(f + 8, b);
  }

  static cvec load_partial(const c32* p, std::size_t count) noexcept {
    const float* f = reinterpret_cast<const float*>(p);
    const std::size_t floats = 2 * count;  // count <= lanes
    const __m256 a = _mm256_maskload_ps(f, float_mask(floats > 8 ? 8 : floats));
    const __m256 b = _mm256_maskload_ps(f + 8, float_mask(floats > 8 ? floats - 8 : 0));
    return deinterleave(a, b);
  }
  static void store_partial(c32* p, cvec v, std::size_t count) noexcept {
    __m256 a, b;
    interleave(v, a, b);
    float* f = reinterpret_cast<float*>(p);
    const std::size_t floats = 2 * count;
    _mm256_maskstore_ps(f, float_mask(floats > 8 ? 8 : floats), a);
    _mm256_maskstore_ps(f + 8, float_mask(floats > 8 ? floats - 8 : 0), b);
  }

  static cvec load_split(const float* re, const float* im) noexcept {
    return {_mm256_loadu_ps(re), _mm256_loadu_ps(im)};
  }
  static void store_split(float* re, float* im, cvec v) noexcept {
    _mm256_storeu_ps(re, v.re);
    _mm256_storeu_ps(im, v.im);
  }

  static cvec add(cvec a, cvec b) noexcept {
    return {_mm256_add_ps(a.re, b.re), _mm256_add_ps(a.im, b.im)};
  }
  static cvec sub(cvec a, cvec b) noexcept {
    return {_mm256_sub_ps(a.re, b.re), _mm256_sub_ps(a.im, b.im)};
  }
  static cvec cmul(cvec a, cvec b) noexcept {
    return {_mm256_fmsub_ps(a.re, b.re, _mm256_mul_ps(a.im, b.im)),
            _mm256_fmadd_ps(a.re, b.im, _mm256_mul_ps(a.im, b.re))};
  }
  static cvec cmadd(cvec acc, cvec a, cvec b) noexcept {
    return {_mm256_fmadd_ps(a.re, b.re, _mm256_fnmadd_ps(a.im, b.im, acc.re)),
            _mm256_fmadd_ps(a.re, b.im, _mm256_fmadd_ps(a.im, b.re, acc.im))};
  }
  /// acc + a * b for a real a.  With a.im = 0 the inner FMAs of cmadd
  /// return acc unchanged for finite b, so this is bit-identical to cmadd
  /// on a {a, 0} operand at half the FMAs.
  static cvec rmadd(cvec acc, float a, cvec b) noexcept {
    const __m256 va = _mm256_set1_ps(a);
    return {_mm256_fmadd_ps(va, b.re, acc.re), _mm256_fmadd_ps(va, b.im, acc.im)};
  }
  static cvec scale(cvec a, float s) noexcept {
    const __m256 vs = _mm256_set1_ps(s);
    return {_mm256_mul_ps(a.re, vs), _mm256_mul_ps(a.im, vs)};
  }
  static cvec mul_neg_i(cvec a) noexcept {
    return {a.im, _mm256_sub_ps(_mm256_setzero_ps(), a.re)};
  }
  static cvec mul_pos_i(cvec a) noexcept {
    return {_mm256_sub_ps(_mm256_setzero_ps(), a.im), a.re};
  }

  // Packed (interleaved) complex vectors: 4 complexes per __m256 in AoS
  // order.  Loads/stores/add/sub are shuffle-free; the complex multiply is
  // the classic moveldup/movehdup/fmaddsub sequence (3 shuffles + 2 mul-ops
  // per 4 multiplies).
  static constexpr std::size_t planes = 4;
  struct pvec {
    __m256 v;
  };
  static pvec pload(const c32* p) noexcept {
    return {_mm256_loadu_ps(reinterpret_cast<const float*>(p))};
  }
  static void pstore(c32* p, pvec v) noexcept {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v.v);
  }
  static pvec pset1(c32 v) noexcept {
    // Broadcast the 64-bit (re, im) pair into all four complex slots.
    return {_mm256_castpd_ps(_mm256_broadcast_sd(reinterpret_cast<const double*>(&v)))};
  }
  static pvec padd(pvec a, pvec b) noexcept { return {_mm256_add_ps(a.v, b.v)}; }
  static pvec psub(pvec a, pvec b) noexcept { return {_mm256_sub_ps(a.v, b.v)}; }
  static pvec pcmul(pvec a, pvec b) noexcept {
    const __m256 bre = _mm256_moveldup_ps(b.v);                    // b.re b.re ...
    const __m256 bim = _mm256_movehdup_ps(b.v);                    // b.im b.im ...
    const __m256 aswap = _mm256_permute_ps(a.v, 0b10110001);       // a.im a.re ...
    // even lanes: a.re*b.re - a.im*b.im; odd lanes: a.im*b.re + a.re*b.im.
    return {_mm256_fmaddsub_ps(a.v, bre, _mm256_mul_ps(aswap, bim))};
  }
  static pvec pcmadd(pvec acc, pvec a, pvec b) noexcept { return padd(acc, pcmul(a, b)); }
  /// Four distinct complexes packed into one vector (lane-major twiddle
  /// gathers in the sub-lane Stockham passes).
  static pvec pset4(c32 a, c32 b, c32 c, c32 d) noexcept {
    return {_mm256_setr_ps(a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)};
  }
  // Complex-granularity shuffles.  A c32 is one 64-bit lane, so these are
  // double-precision unpacks/permutes under the hood (the casts are free).
  /// (a0,b0,a1,b1) — interleave the low complex pairs of a and b.
  static pvec pzip_lo(pvec a, pvec b) noexcept {
    const __m256d t0 = _mm256_unpacklo_pd(_mm256_castps_pd(a.v), _mm256_castps_pd(b.v));
    const __m256d t1 = _mm256_unpackhi_pd(_mm256_castps_pd(a.v), _mm256_castps_pd(b.v));
    return {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t1, 0x20))};
  }
  /// (a2,b2,a3,b3) — interleave the high complex pairs of a and b.
  static pvec pzip_hi(pvec a, pvec b) noexcept {
    const __m256d t0 = _mm256_unpacklo_pd(_mm256_castps_pd(a.v), _mm256_castps_pd(b.v));
    const __m256d t1 = _mm256_unpackhi_pd(_mm256_castps_pd(a.v), _mm256_castps_pd(b.v));
    return {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t1, 0x31))};
  }
  /// (a0,a1,b0,b1) — concatenate the low complex pairs (128-bit halves).
  static pvec pzip_pair_lo(pvec a, pvec b) noexcept {
    return {_mm256_permute2f128_ps(a.v, b.v, 0x20)};
  }
  /// (a2,a3,b2,b3) — concatenate the high complex pairs.
  static pvec pzip_pair_hi(pvec a, pvec b) noexcept {
    return {_mm256_permute2f128_ps(a.v, b.v, 0x31)};
  }
  /// In-register 4x4 complex transpose: treating r0..r3 as the rows of a
  /// 4x4 c32 tile, swaps element (i, j) with (j, i).  8 shuffles total —
  /// the primitive behind both the cache-blocked 2D-FFT transpose and the
  /// lane-major sub-lane butterfly passes.
  static void ptranspose4(pvec& r0, pvec& r1, pvec& r2, pvec& r3) noexcept {
    const __m256d a = _mm256_castps_pd(r0.v);
    const __m256d b = _mm256_castps_pd(r1.v);
    const __m256d c = _mm256_castps_pd(r2.v);
    const __m256d d = _mm256_castps_pd(r3.v);
    const __m256d t0 = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
    const __m256d t1 = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
    const __m256d t2 = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
    const __m256d t3 = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
    r0 = {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x20))};  // a0 b0 c0 d0
    r1 = {_mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x20))};  // a1 b1 c1 d1
    r2 = {_mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x31))};  // a2 b2 c2 d2
    r3 = {_mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x31))};  // a3 b3 c3 d3
  }
  static pvec pmul_neg_i(pvec a) noexcept {
    // (re, im) -> (im, -re): swap within each pair, negate the new im lane.
    const __m256 swapped = _mm256_permute_ps(a.v, 0b10110001);
    return {_mm256_xor_ps(swapped, odd_sign_mask())};
  }
  static pvec pmul_pos_i(pvec a) noexcept {
    // (re, im) -> (-im, re): negate im first, then swap within each pair.
    const __m256 negated = _mm256_xor_ps(a.v, odd_sign_mask());
    return {_mm256_permute_ps(negated, 0b10110001)};
  }
  static pvec pscale(pvec a, float s) noexcept {
    return {_mm256_mul_ps(a.v, _mm256_set1_ps(s))};
  }
  static pvec pconj(pvec a) noexcept { return {_mm256_xor_ps(a.v, odd_sign_mask())}; }
  /// Reverses the complex-lane order: (a0,a1,a2,a3) -> (a3,a2,a1,a0).  Each
  /// c32 is one 64-bit lane, so this is a single cross-lane double permute.
  static pvec preverse(pvec a) noexcept {
    return {_mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(a.v), 0b00011011))};
  }

 private:
  /// -0.0f in the odd (imaginary) lanes: xor flips their sign.
  static __m256 odd_sign_mask() noexcept {
    return _mm256_castsi256_ps(
        _mm256_set_epi32(static_cast<int>(0x80000000u), 0, static_cast<int>(0x80000000u), 0,
                         static_cast<int>(0x80000000u), 0, static_cast<int>(0x80000000u), 0));
  }
  static cvec deinterleave(__m256 a, __m256 b) noexcept {
    // a = r0 i0 r1 i1 r2 i2 r3 i3, b = r4 i4 r5 i5 r6 i6 r7 i7
    const __m256 lo = _mm256_permute2f128_ps(a, b, 0x20);  // r0 i0 r1 i1 r4 i4 r5 i5
    const __m256 hi = _mm256_permute2f128_ps(a, b, 0x31);  // r2 i2 r3 i3 r6 i6 r7 i7
    return {_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)),
            _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))};
  }
  static void interleave(cvec v, __m256& a, __m256& b) noexcept {
    const __m256 lo = _mm256_unpacklo_ps(v.re, v.im);  // r0 i0 r1 i1 r4 i4 r5 i5
    const __m256 hi = _mm256_unpackhi_ps(v.re, v.im);  // r2 i2 r3 i3 r6 i6 r7 i7
    a = _mm256_permute2f128_ps(lo, hi, 0x20);
    b = _mm256_permute2f128_ps(lo, hi, 0x31);
  }
  /// All-ones mask on the first `valid` (0..8) float lanes.
  static __m256i float_mask(std::size_t valid) noexcept {
    alignas(32) static constexpr std::int32_t kMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                           0,  0,  0,  0,  0,  0,  0,  0};
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kMask + 8 - valid));
  }
};

// ------------------------------------------------------------------ avx512

#if TURBOFNO_SIMD_HAVE_AVX512

/// 16 split-complex lanes (one __m512 of reals, one of imaginaries) for the
/// broadcast-FMA kernels: the CGEMM micro-kernel, its packs and epilogue,
/// and the fused rank updates.  The packed `pvec` half (4 complexes per
/// __m256) is inherited from Avx2Backend unchanged, so every FFT butterfly,
/// sub-lane pass and transpose runs exactly the AVX2 code.  Each lane does
/// the same fmadd/fnmadd sequence as the AVX2 lane, so results are
/// bit-identical to the AVX2 backend.
struct Avx512Backend : Avx2Backend {
  static constexpr std::size_t lanes = 16;
  static constexpr const char* name() noexcept { return "avx512"; }

  struct cvec {
    __m512 re;
    __m512 im;
  };

  static cvec zero() noexcept { return {_mm512_setzero_ps(), _mm512_setzero_ps()}; }
  static cvec broadcast(c32 v) noexcept {
    return {_mm512_set1_ps(v.re), _mm512_set1_ps(v.im)};
  }
  static cvec broadcast_split(float re, float im) noexcept {
    return {_mm512_set1_ps(re), _mm512_set1_ps(im)};
  }

  /// Deinterleave 16 consecutive c32 (32 floats) into split registers.
  static cvec load(const c32* p) noexcept {
    const float* f = reinterpret_cast<const float*>(p);
    return deinterleave(_mm512_loadu_ps(f), _mm512_loadu_ps(f + 16));
  }
  static void store(c32* p, cvec v) noexcept {
    __m512 a, b;
    interleave(v, a, b);
    float* f = reinterpret_cast<float*>(p);
    _mm512_storeu_ps(f, a);
    _mm512_storeu_ps(f + 16, b);
  }

  static cvec load_partial(const c32* p, std::size_t count) noexcept {
    const float* f = reinterpret_cast<const float*>(p);
    const std::size_t floats = 2 * count;  // count <= lanes
    const __m512 a = _mm512_maskz_loadu_ps(float_mask(floats > 16 ? 16 : floats), f);
    const __m512 b = _mm512_maskz_loadu_ps(float_mask(floats > 16 ? floats - 16 : 0), f + 16);
    return deinterleave(a, b);
  }
  static void store_partial(c32* p, cvec v, std::size_t count) noexcept {
    __m512 a, b;
    interleave(v, a, b);
    float* f = reinterpret_cast<float*>(p);
    const std::size_t floats = 2 * count;
    _mm512_mask_storeu_ps(f, float_mask(floats > 16 ? 16 : floats), a);
    _mm512_mask_storeu_ps(f + 16, float_mask(floats > 16 ? floats - 16 : 0), b);
  }

  static cvec load_split(const float* re, const float* im) noexcept {
    return {_mm512_loadu_ps(re), _mm512_loadu_ps(im)};
  }
  static void store_split(float* re, float* im, cvec v) noexcept {
    _mm512_storeu_ps(re, v.re);
    _mm512_storeu_ps(im, v.im);
  }

  static cvec add(cvec a, cvec b) noexcept {
    return {_mm512_add_ps(a.re, b.re), _mm512_add_ps(a.im, b.im)};
  }
  static cvec sub(cvec a, cvec b) noexcept {
    return {_mm512_sub_ps(a.re, b.re), _mm512_sub_ps(a.im, b.im)};
  }
  // cmul/cmadd/rmadd: the Avx2Backend operation order, lane for lane.
  static cvec cmul(cvec a, cvec b) noexcept {
    return {_mm512_fmsub_ps(a.re, b.re, _mm512_mul_ps(a.im, b.im)),
            _mm512_fmadd_ps(a.re, b.im, _mm512_mul_ps(a.im, b.re))};
  }
  static cvec cmadd(cvec acc, cvec a, cvec b) noexcept {
    return {_mm512_fmadd_ps(a.re, b.re, _mm512_fnmadd_ps(a.im, b.im, acc.re)),
            _mm512_fmadd_ps(a.re, b.im, _mm512_fmadd_ps(a.im, b.re, acc.im))};
  }
  static cvec rmadd(cvec acc, float a, cvec b) noexcept {
    const __m512 va = _mm512_set1_ps(a);
    return {_mm512_fmadd_ps(va, b.re, acc.re), _mm512_fmadd_ps(va, b.im, acc.im)};
  }
  static cvec scale(cvec a, float s) noexcept {
    const __m512 vs = _mm512_set1_ps(s);
    return {_mm512_mul_ps(a.re, vs), _mm512_mul_ps(a.im, vs)};
  }
  static cvec mul_neg_i(cvec a) noexcept {
    return {a.im, _mm512_sub_ps(_mm512_setzero_ps(), a.re)};
  }
  static cvec mul_pos_i(cvec a) noexcept {
    return {_mm512_sub_ps(_mm512_setzero_ps(), a.im), a.re};
  }

 private:
  static cvec deinterleave(__m512 a, __m512 b) noexcept {
    // a = r0 i0 .. r7 i7, b = r8 i8 .. r15 i15; indices >= 16 pick from b.
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26,
                                           28, 30);
    const __m512i odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27,
                                          29, 31);
    return {_mm512_permutex2var_ps(a, even, b), _mm512_permutex2var_ps(a, odd, b)};
  }
  static void interleave(cvec v, __m512& a, __m512& b) noexcept {
    const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    const __m512i hi =
        _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
    a = _mm512_permutex2var_ps(v.re, lo, v.im);
    b = _mm512_permutex2var_ps(v.re, hi, v.im);
  }
  /// Write mask of the first `valid` (0..16) float lanes.
  static __mmask16 float_mask(std::size_t valid) noexcept {
    return static_cast<__mmask16>((1u << valid) - 1u);
  }
};

using Active = Avx512Backend;

#else

using Active = Avx2Backend;

#endif  // TURBOFNO_SIMD_HAVE_AVX512

#else

using Active = ScalarBackend;

#endif  // TURBOFNO_SIMD_HAVE_AVX2

inline constexpr std::size_t kLanes = Active::lanes;

/// Which backend the library's kernels were compiled against.
inline const char* active_backend() noexcept { return Active::name(); }

/// Rounds n up to a whole number of complex lanes (used for tile leading
/// dimensions so vector rows never straddle a tail).
inline constexpr std::size_t round_up_lanes(std::size_t n) noexcept {
  return (n + kLanes - 1) / kLanes * kLanes;
}

/// Split an interleaved c32 run into separate re/im planes (and back).
template <class B = Active>
inline void split_planes(const c32* src, float* re, float* im, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + B::lanes <= n; i += B::lanes) {
    B::store_split(re + i, im + i, B::load(src + i));
  }
  for (; i < n; ++i) {
    re[i] = src[i].re;
    im[i] = src[i].im;
  }
}

template <class B = Active>
inline void interleave_planes(const float* re, const float* im, c32* dst, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + B::lanes <= n; i += B::lanes) {
    B::store(dst + i, B::load_split(re + i, im + i));
  }
  for (; i < n; ++i) {
    dst[i] = c32{re[i], im[i]};
  }
}

}  // namespace turbofno::simd
