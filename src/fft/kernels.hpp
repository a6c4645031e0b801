// Backend-templated FFT butterfly kernels.
//
// The Stockham radix-2/radix-4 passes live here, parameterized on a simd
// backend (tensor/simd.hpp), so:
//   - stockham.cpp instantiates them with simd::Active,
//   - the SIMD micro bench and parity tests can instantiate the scalar and
//     AVX2 backends side by side in one binary.
//
// Vectorization strategy: every kernel's innermost loop runs over a
// contiguous run of butterflies (the q-loop over `s` adjacent outputs) using
// the backend's *packed* complex vectors (B::pvec, AoS order): butterflies
// are add/sub dominated, which packed lanes do shuffle-free, and the twiddle
// multiply is a single fmaddsub sequence.  Sub-lane passes (s < B::planes,
// i.e. the early stages of every transform) are transposed to lane-major
// form: each vector carries the same butterfly leg of several consecutive p
// groups and the outputs are shuffled back with the backend's zip/4x4
// transpose primitives, so they run packed instead of on the scalar tail.
// Remaining short runs fall through to the scalar tail, which is
// bit-identical to the seed's scalar code.
//
// The column-blocked transforms (stockham_columns, run by
// FftPlan::execute_blocked) start every transform at s = W = 8 interleaved
// signals, so they never take the sub-lane passes: every pass is the
// full-width q-loop.  Per element the sub-lane and the q-loop forms do the
// same arithmetic with the same twiddles, which is why the blocked
// transforms are bitwise equal to one-signal transforms once n >= 16 (the
// sub-lane forms also multiply their p == 0 legs by the exact twiddle 1,
// which can only flip the sign of an exact zero).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft::kernels {

/// One DIF-Stockham radix-2 pass: combines pairs (p, p+l) with stride s into
/// an interleaved output.  Data flows src -> dst; after all passes the
/// result is in natural order.  `w` = twiddles for sub-transform length 2l.
///
/// The j == 0 twiddle is 1 + 0i; the p == 0 iteration is peeled so the
/// common case avoids a complex multiply.
template <class B, bool Inverse>
void pass_radix2(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w) {
  using P = typename B::pvec;
  // The q-loops' whole-vector part.  Bounding it up front lets GCC see
  // that the scalar tails run fewer than `planes` times; without that,
  // GCC 12 warns of an out-of-range tail iteration wherever s is
  // constant-propagated (-Waggressive-loop-optimizations).
  const std::size_t sv = s - s % B::planes;
  if constexpr (B::planes == 4) {
    // Sub-lane strides (s < planes): the q-loop is shorter than a vector, so
    // run lane-major over p instead — each packed vector holds butterflies
    // from `planes / s` consecutive p groups, with the twiddles gathered to
    // match and the outputs shuffled back to the interleaved dst layout.
    // The twiddle values are the same table entries the scalar tail reads
    // (w[0] == 1, so the peeled p == 0 group folds into the vector loop
    // exactly).
    if (s == 1 && l >= 4) {
      const c32* sa = src;
      const c32* sb = src + l;
      std::size_t p = 0;
      for (; p + 4 <= l; p += 4) {
        const P a = B::pload(sa + p);
        const P b = B::pload(sb + p);
        const P sum = B::padd(a, b);
        const P dif = B::pcmul(B::psub(a, b), B::pload(w.data() + p));
        // dst layout per p: [sum_p, dif_p] at 2p — interleave lanes back.
        B::pstore(dst + 2 * p, B::pzip_lo(sum, dif));
        B::pstore(dst + 2 * p + 4, B::pzip_hi(sum, dif));
      }
      for (; p < l; ++p) {
        const c32 a = sa[p];
        const c32 b = sb[p];
        dst[2 * p] = a + b;
        dst[2 * p + 1] = (a - b) * w[p];
      }
      return;
    }
    if (s == 2 && l >= 2) {
      std::size_t p = 0;
      for (; p + 2 <= l; p += 2) {
        const P a = B::pload(src + 2 * p);            // p:(q0,q1), p+1:(q0,q1)
        const P b = B::pload(src + 2 * (p + l));
        const P sum = B::padd(a, b);
        const P wv = B::pset4(w[p], w[p], w[p + 1], w[p + 1]);
        const P dif = B::pcmul(B::psub(a, b), wv);
        // dst layout per p: [sum_p(2), dif_p(2)] at 4p — pair interleave.
        B::pstore(dst + 4 * p, B::pzip_pair_lo(sum, dif));
        B::pstore(dst + 4 * p + 4, B::pzip_pair_hi(sum, dif));
      }
      for (; p < l; ++p) {
        for (std::size_t q = 0; q < 2; ++q) {
          const c32 a = src[2 * p + q];
          const c32 b = src[2 * (p + l) + q];
          dst[4 * p + q] = a + b;
          dst[4 * p + 2 + q] = (a - b) * w[p];
        }
      }
      return;
    }
  }
  {
    const c32* sa = src;
    const c32* sb = src + s * l;
    c32* d0 = dst;
    c32* d1 = dst + s;
    std::size_t q = 0;
    for (; q < sv; q += B::planes) {
      const P a = B::pload(sa + q);
      const P b = B::pload(sb + q);
      B::pstore(d0 + q, B::padd(a, b));
      B::pstore(d1 + q, B::psub(a, b));
    }
    for (; q < s; ++q) {
      const c32 a = sa[q];
      const c32 b = sb[q];
      d0[q] = a + b;
      d1[q] = a - b;
    }
  }
  for (std::size_t p = 1; p < l; ++p) {
    const c32 wp = w[p];
    const P wv = B::pset1(wp);
    const c32* sa = src + s * p;
    const c32* sb = src + s * (p + l);
    c32* d0 = dst + s * 2 * p;
    c32* d1 = d0 + s;
    std::size_t q = 0;
    for (; q < sv; q += B::planes) {
      const P a = B::pload(sa + q);
      const P b = B::pload(sb + q);
      B::pstore(d0 + q, B::padd(a, b));
      B::pstore(d1 + q, B::pcmul(B::psub(a, b), wv));
    }
    for (; q < s; ++q) {
      const c32 a = sa[q];
      const c32 b = sb[q];
      d0[q] = a + b;
      d1[q] = (a - b) * wp;
    }
  }
}

/// One DIF-Stockham radix-4 pass over a current sub-transform length L = 4*l:
/// reads x[p + j*l] (j = 0..3, stride s), writes the four interleaved
/// outputs at 4p..4p+3.  The quarter-turn factor is -i forward / +i inverse.
/// `w` = twiddles for length L (first half of the circle; 2p/3p fold with
/// W(j + L/2) = -W(j)).
///
/// The p == 0 iteration (w1 = w2 = w3 = 1) is peeled out of the loop, so the
/// most common butterfly group pays no twiddle multiplies and the main loop
/// carries no per-iteration branch.
template <class B, bool Inverse>
void pass_radix4(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w) {
  using P = typename B::pvec;
  const std::size_t sv = s - s % B::planes;  // as in pass_radix2
  const std::size_t half = 2 * l;  // = L / 2

  auto tw_at = [&](std::size_t j) -> c32 { return j < half ? w[j] : -w[j - half]; };
  auto quarter = [](P v) { return Inverse ? B::pmul_pos_i(v) : B::pmul_neg_i(v); };

  if constexpr (B::planes == 4) {
    // s == 1 is the first pass of every mixed-radix transform and used to run
    // entirely on the scalar tail.  Lane-major form: one vector holds the
    // same butterfly leg for four consecutive p, the twiddles (table-exact,
    // including the 1-values of the p == 0 group) are gathered per leg, and
    // an in-register 4x4 transpose turns the four result legs back into the
    // four interleaved per-p output quartets.
    if (s == 1 && l >= 4) {
      std::size_t p = 0;
      for (; p + 4 <= l; p += 4) {
        const P x0 = B::pload(src + p);
        const P x1 = B::pload(src + p + l);
        const P x2 = B::pload(src + p + 2 * l);
        const P x3 = B::pload(src + p + 3 * l);
        const P t0 = B::padd(x0, x2);
        const P t1 = B::psub(x0, x2);
        const P t2 = B::padd(x1, x3);
        const P t3 = quarter(B::psub(x1, x3));
        P r0 = B::padd(t0, t2);
        P r1 = B::pcmul(B::padd(t1, t3), B::pload(w.data() + p));
        P r2 = B::pcmul(B::psub(t0, t2), B::pset4(tw_at(2 * p), tw_at(2 * p + 2),
                                                  tw_at(2 * p + 4), tw_at(2 * p + 6)));
        P r3 = B::pcmul(B::psub(t1, t3), B::pset4(tw_at(3 * p), tw_at(3 * p + 3),
                                                  tw_at(3 * p + 6), tw_at(3 * p + 9)));
        B::ptranspose4(r0, r1, r2, r3);
        B::pstore(dst + 4 * p, r0);
        B::pstore(dst + 4 * p + 4, r1);
        B::pstore(dst + 4 * p + 8, r2);
        B::pstore(dst + 4 * p + 12, r3);
      }
      for (; p < l; ++p) {
        const c32 a = src[p];
        const c32 b = src[p + l];
        const c32 c = src[p + 2 * l];
        const c32 d = src[p + 3 * l];
        const c32 t0 = a + c;
        const c32 t1 = a - c;
        const c32 t2 = b + d;
        const c32 t3 = Inverse ? mul_pos_i(b - d) : mul_neg_i(b - d);
        dst[4 * p] = t0 + t2;
        dst[4 * p + 1] = (t1 + t3) * tw_at(p);
        dst[4 * p + 2] = (t0 - t2) * tw_at(2 * p);
        dst[4 * p + 3] = (t1 - t3) * tw_at(3 * p);
      }
      return;
    }
    // s == 2 never occurs in the mixed-radix schedule (s multiplies by 4
    // between radix-4 passes) — the generic path below covers it if a
    // future driver produces one.
  }

  {
    // p == 0: all twiddles are 1, pure butterfly.
    const c32* s0 = src;
    const c32* s1 = src + s * l;
    const c32* s2 = src + s * 2 * l;
    const c32* s3 = src + s * 3 * l;
    c32* d0 = dst;
    c32* d1 = d0 + s;
    c32* d2 = d1 + s;
    c32* d3 = d2 + s;
    std::size_t q = 0;
    for (; q < sv; q += B::planes) {
      const P t0 = B::padd(B::pload(s0 + q), B::pload(s2 + q));
      const P t1 = B::psub(B::pload(s0 + q), B::pload(s2 + q));
      const P t2 = B::padd(B::pload(s1 + q), B::pload(s3 + q));
      const P t3 = quarter(B::psub(B::pload(s1 + q), B::pload(s3 + q)));
      B::pstore(d0 + q, B::padd(t0, t2));
      B::pstore(d1 + q, B::padd(t1, t3));
      B::pstore(d2 + q, B::psub(t0, t2));
      B::pstore(d3 + q, B::psub(t1, t3));
    }
    for (; q < s; ++q) {
      const c32 a = s0[q];
      const c32 b = s1[q];
      const c32 c = s2[q];
      const c32 d = s3[q];
      const c32 t0 = a + c;
      const c32 t1 = a - c;
      const c32 t2 = b + d;
      const c32 t3 = Inverse ? mul_pos_i(b - d) : mul_neg_i(b - d);
      d0[q] = t0 + t2;
      d1[q] = t1 + t3;
      d2[q] = t0 - t2;
      d3[q] = t1 - t3;
    }
  }

  for (std::size_t p = 1; p < l; ++p) {
    const c32 w1 = tw_at(p);
    const c32 w2 = tw_at(2 * p);
    const c32 w3 = tw_at(3 * p);
    const P w1v = B::pset1(w1);
    const P w2v = B::pset1(w2);
    const P w3v = B::pset1(w3);
    const c32* s0 = src + s * p;
    const c32* s1 = src + s * (p + l);
    const c32* s2 = src + s * (p + 2 * l);
    const c32* s3 = src + s * (p + 3 * l);
    c32* d0 = dst + s * 4 * p;
    c32* d1 = d0 + s;
    c32* d2 = d1 + s;
    c32* d3 = d2 + s;
    std::size_t q = 0;
    for (; q < sv; q += B::planes) {
      const P t0 = B::padd(B::pload(s0 + q), B::pload(s2 + q));
      const P t1 = B::psub(B::pload(s0 + q), B::pload(s2 + q));
      const P t2 = B::padd(B::pload(s1 + q), B::pload(s3 + q));
      const P t3 = quarter(B::psub(B::pload(s1 + q), B::pload(s3 + q)));
      B::pstore(d0 + q, B::padd(t0, t2));
      B::pstore(d1 + q, B::pcmul(B::padd(t1, t3), w1v));
      B::pstore(d2 + q, B::pcmul(B::psub(t0, t2), w2v));
      B::pstore(d3 + q, B::pcmul(B::psub(t1, t3), w3v));
    }
    for (; q < s; ++q) {
      const c32 a = s0[q];
      const c32 b = s1[q];
      const c32 c = s2[q];
      const c32 d = s3[q];
      const c32 t0 = a + c;
      const c32 t1 = a - c;
      const c32 t2 = b + d;
      const c32 t3 = Inverse ? mul_pos_i(b - d) : mul_neg_i(b - d);
      d0[q] = t0 + t2;
      d1[q] = (t1 + t3) * w1;
      d2[q] = (t0 - t2) * w2;
      d3[q] = (t1 - t3) * w3;
    }
  }
}

}  // namespace turbofno::fft::kernels
