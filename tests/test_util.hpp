// Shared helpers for the TurboFNO test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <random>
#include <span>
#include <vector>

#include "tensor/complex.hpp"

namespace turbofno::testing {

inline std::vector<c32> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<c32> v(n);
  for (auto& x : v) x = {dist(rng), dist(rng)};
  return v;
}

inline std::vector<float> random_reals(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// True when the two buffers hold the same bits.
template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// x-major [rows, ny] fields -> y-major [ny, rows] tiles, field by field:
/// the layout the 2D X-stage tile entry points produce and consume.
inline std::vector<c32> y_major(const std::vector<c32>& x, std::size_t fields,
                                std::size_t rows, std::size_t ny) {
  std::vector<c32> t(x.size());
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t y = 0; y < ny; ++y) t[(f * ny + y) * rows + r] = x[(f * rows + r) * ny + y];
    }
  }
  return t;
}

inline double max_err(std::span<const c32> a, std::span<const c32> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i].re - b[i].re)));
    m = std::max(m, static_cast<double>(std::fabs(a[i].im - b[i].im)));
  }
  return m;
}

inline double rel_err(std::span<const c32> a, std::span<const c32> b) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double dr = static_cast<double>(a[i].re) - b[i].re;
    const double di = static_cast<double>(a[i].im) - b[i].im;
    num += dr * dr + di * di;
    den += static_cast<double>(b[i].re) * b[i].re + static_cast<double>(b[i].im) * b[i].im;
  }
  return std::sqrt(num / den);
}

inline double rel_err(std::span<const float> a, std::span<const float> b) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return std::sqrt(num / den);
}

/// FFT error grows ~ sqrt(log n) in float; this bound is loose but tight
/// enough to catch real bugs (wrong twiddle, wrong ordering, missed scale).
inline double fft_tol(std::size_t n) { return 2e-5 * std::sqrt(static_cast<double>(n)); }

/// Spectral-convolution shape for reference_spectral_conv; a 1D problem is
/// the nx = mx = 1 case.
struct ConvShape {
  std::size_t batch, hidden, out_dim, nx, ny, mx, my;
};

/// Direct double-precision spectral convolution of u [batch, hidden, nx, ny]
/// with weights w [out_dim, hidden]: the first mx x my bins of the 2D DFT,
/// mixed along hidden, then the zero-padded inverse DFT.  Every sum runs in
/// double; only the returned samples are rounded to float.
inline std::vector<c32> reference_spectral_conv(const ConvShape& s, std::span<const c32> u,
                                                std::span<const c32> w) {
  using cd = std::complex<double>;
  auto roots = [](std::size_t n) {
    std::vector<cd> r(n);
    for (std::size_t j = 0; j < n; ++j) {
      r[j] = std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(j) /
                                 static_cast<double>(n));
    }
    return r;
  };
  const auto ex = roots(s.nx);
  const auto ey = roots(s.ny);
  const std::size_t K = s.hidden, O = s.out_dim, NX = s.nx, NY = s.ny, MX = s.mx, MY = s.my;
  const std::size_t modes = MX * MY;
  std::vector<c32> v(s.batch * O * NX * NY);
  for (std::size_t b = 0; b < s.batch; ++b) {
    std::vector<cd> f(K * modes);  // truncated forward spectra
    std::vector<cd> a(MX * NY);
    for (std::size_t k = 0; k < K; ++k) {
      const c32* field = u.data() + (b * K + k) * NX * NY;
      std::fill(a.begin(), a.end(), cd{});
      for (std::size_t r = 0; r < MX; ++r) {
        for (std::size_t x = 0; x < NX; ++x) {
          const cd t = ex[(x * r) % NX];
          for (std::size_t y = 0; y < NY; ++y) {
            a[r * NY + y] += t * cd(field[x * NY + y].re, field[x * NY + y].im);
          }
        }
      }
      for (std::size_t r = 0; r < MX; ++r) {
        for (std::size_t c = 0; c < MY; ++c) {
          cd acc{};
          for (std::size_t y = 0; y < NY; ++y) acc += a[r * NY + y] * ey[(y * c) % NY];
          f[k * modes + r * MY + c] = acc;
        }
      }
    }
    for (std::size_t o = 0; o < O; ++o) {
      std::vector<cd> m(modes);  // mixing along hidden
      for (std::size_t k = 0; k < K; ++k) {
        const cd wk(w[o * K + k].re, w[o * K + k].im);
        for (std::size_t i = 0; i < modes; ++i) m[i] += wk * f[k * modes + i];
      }
      std::vector<cd> bq(MX * NY);  // zero-padded inverse along y
      for (std::size_t r = 0; r < MX; ++r) {
        for (std::size_t y = 0; y < NY; ++y) {
          cd acc{};
          for (std::size_t c = 0; c < MY; ++c) acc += m[r * MY + c] * std::conj(ey[(y * c) % NY]);
          bq[r * NY + y] = acc / static_cast<double>(NY);
        }
      }
      c32* out = v.data() + (b * O + o) * NX * NY;
      for (std::size_t x = 0; x < NX; ++x) {
        for (std::size_t y = 0; y < NY; ++y) {
          cd acc{};
          for (std::size_t r = 0; r < MX; ++r) acc += bq[r * NY + y] * std::conj(ex[(x * r) % NX]);
          acc /= static_cast<double>(NX);
          out[x * NY + y] = {static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
        }
      }
    }
  }
  return v;
}

}  // namespace turbofno::testing
