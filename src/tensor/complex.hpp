// Single-precision complex value type used throughout TurboFNO.
//
// We deliberately do not use std::complex<float> in the hot kernels: its
// operator* performs NaN-correct Annex-G multiplication unless -ffast-math is
// on, and its aliasing guarantees inhibit vectorization of interleaved
// buffers.  `c32` is a trivially-copyable POD with fused-multiply-add helpers
// that GCC auto-vectorizes cleanly at -O3.
#pragma once

#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <numbers>

namespace turbofno {

struct c32 {
  // No default member initializers: c32 must stay a trivial type so buffers
  // of it can be memset/memcpy'd.  c32{} still value-initializes to zero.
  float re;
  float im;

  c32() = default;
  constexpr c32(float r, float i) : re(r), im(i) {}
  explicit constexpr c32(float r) : re(r), im(0.0f) {}

  friend constexpr c32 operator+(c32 a, c32 b) { return {a.re + b.re, a.im + b.im}; }
  friend constexpr c32 operator-(c32 a, c32 b) { return {a.re - b.re, a.im - b.im}; }
  friend constexpr c32 operator*(c32 a, c32 b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
  friend constexpr c32 operator*(float s, c32 a) { return {s * a.re, s * a.im}; }
  friend constexpr c32 operator*(c32 a, float s) { return {s * a.re, s * a.im}; }
  friend constexpr c32 operator-(c32 a) { return {-a.re, -a.im}; }

  constexpr c32& operator+=(c32 b) {
    re += b.re;
    im += b.im;
    return *this;
  }
  constexpr c32& operator-=(c32 b) {
    re -= b.re;
    im -= b.im;
    return *this;
  }
  constexpr c32& operator*=(c32 b) {
    *this = *this * b;
    return *this;
  }
  constexpr c32& operator*=(float s) {
    re *= s;
    im *= s;
    return *this;
  }

  friend constexpr bool operator==(c32 a, c32 b) { return a.re == b.re && a.im == b.im; }

  /// a += b * c without an intermediate temporary; the canonical inner-loop op.
  friend constexpr void cmadd(c32& acc, c32 b, c32 c) {
    acc.re += b.re * c.re - b.im * c.im;
    acc.im += b.re * c.im + b.im * c.re;
  }

  friend constexpr c32 conj(c32 a) { return {a.re, -a.im}; }
  friend float abs(c32 a) { return std::hypot(a.re, a.im); }
  friend constexpr float norm2(c32 a) { return a.re * a.re + a.im * a.im; }

  /// Multiplication by -i (quarter-turn), used by the radix-4 butterflies.
  friend constexpr c32 mul_neg_i(c32 a) { return {a.im, -a.re}; }
  friend constexpr c32 mul_pos_i(c32 a) { return {-a.im, a.re}; }
};

static_assert(sizeof(c32) == 8, "c32 must be two packed floats");

/// exp(-2*pi*i * k / n) — the DFT twiddle factor (forward sign convention).
inline c32 twiddle(std::size_t k, std::size_t n) {
  const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
  return {static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
}

}  // namespace turbofno
