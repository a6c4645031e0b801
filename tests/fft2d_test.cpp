// 2D FFT plan: correctness against a reference 2D DFT, per-axis truncation,
// the forward/inverse round trip the 2D FNO pipeline relies on, and the
// recorded error numbers of the truncated / zero-padded pair on both lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/real2d.hpp"
#include "fft/reference.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::fft_tol;
using turbofno::testing::max_err;
using turbofno::testing::random_signal;

// Reference 2D DFT via two reference_dft passes (double precision inside).
std::vector<c32> reference_fft2d(const std::vector<c32>& in, std::size_t nx, std::size_t ny) {
  std::vector<c32> mid(nx * ny);
  std::vector<c32> col(nx);
  std::vector<c32> colf(nx);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) col[x] = in[x * ny + y];
    reference_dft(col, colf, nx);
    for (std::size_t x = 0; x < nx; ++x) mid[x * ny + y] = colf[x];
  }
  std::vector<c32> out(nx * ny);
  for (std::size_t x = 0; x < nx; ++x) {
    reference_dft(std::span<const c32>(mid.data() + x * ny, ny),
                  std::span<c32>(out.data() + x * ny, ny), ny);
  }
  return out;
}

FftPlan2d make2d(std::size_t nx, std::size_t ny, Direction dir, std::size_t kx = 0,
                 std::size_t ky = 0) {
  Plan2dDesc d;
  d.nx = nx;
  d.ny = ny;
  d.dir = dir;
  d.keep_x = kx;
  d.keep_y = ky;
  return FftPlan2d(d);
}

struct Case2d {
  std::size_t nx;
  std::size_t ny;
};

class FullFft2d : public ::testing::TestWithParam<Case2d> {};

TEST_P(FullFft2d, ForwardMatchesReference) {
  const auto [nx, ny] = GetParam();
  const auto in = random_signal(nx * ny, 211u + static_cast<unsigned>(nx * ny));
  std::vector<c32> out(nx * ny);
  make2d(nx, ny, Direction::Forward).execute(in, out, 1);
  const auto ref = reference_fft2d(in, nx, ny);
  EXPECT_LT(max_err(out, ref), fft_tol(nx * ny));
}

TEST_P(FullFft2d, RoundTripRecoversInput) {
  const auto [nx, ny] = GetParam();
  const auto in = random_signal(nx * ny, 223u);
  std::vector<c32> freq(nx * ny);
  std::vector<c32> back(nx * ny);
  make2d(nx, ny, Direction::Forward).execute(in, freq, 1);
  make2d(nx, ny, Direction::Inverse).execute(freq, back, 1);
  EXPECT_LT(max_err(back, in), fft_tol(nx * ny));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FullFft2d,
                         ::testing::Values(Case2d{4, 4}, Case2d{8, 16}, Case2d{16, 8},
                                           Case2d{32, 32}, Case2d{64, 16}, Case2d{16, 64}));

struct TruncCase2d {
  std::size_t nx, ny, kx, ky;
};

class TruncFft2d : public ::testing::TestWithParam<TruncCase2d> {};

TEST_P(TruncFft2d, TruncatedForwardEqualsFullPlusCornerSlice) {
  const auto [nx, ny, kx, ky] = GetParam();
  const auto in = random_signal(nx * ny, 227u + static_cast<unsigned>(kx + ky));
  const auto full = reference_fft2d(in, nx, ny);
  std::vector<c32> got(kx * ky);
  make2d(nx, ny, Direction::Forward, kx, ky).execute(in, got, 1);
  for (std::size_t x = 0; x < kx; ++x) {
    for (std::size_t y = 0; y < ky; ++y) {
      EXPECT_NEAR(got[x * ky + y].re, full[x * ny + y].re, fft_tol(nx * ny)) << x << "," << y;
      EXPECT_NEAR(got[x * ky + y].im, full[x * ny + y].im, fft_tol(nx * ny)) << x << "," << y;
    }
  }
}

TEST_P(TruncFft2d, PaddedInverseEqualsExplicitPad) {
  const auto [nx, ny, kx, ky] = GetParam();
  const auto spec = random_signal(kx * ky, 229u);
  // Explicit pad into a full field, then full inverse.
  std::vector<c32> padded(nx * ny, c32{});
  for (std::size_t x = 0; x < kx; ++x) {
    for (std::size_t y = 0; y < ky; ++y) padded[x * ny + y] = spec[x * ky + y];
  }
  std::vector<c32> expect(nx * ny);
  make2d(nx, ny, Direction::Inverse).execute(padded, expect, 1);

  std::vector<c32> got(nx * ny);
  make2d(nx, ny, Direction::Inverse, kx, ky).execute(spec, got, 1);
  EXPECT_LT(max_err(got, expect), fft_tol(nx * ny));
}

TEST_P(TruncFft2d, TruncThenPadRoundTripIsLowpass) {
  // fwd-trunc then inv-pad equals projecting onto the retained corner modes:
  // applying it twice changes nothing (idempotent projector).
  const auto [nx, ny, kx, ky] = GetParam();
  const auto in = random_signal(nx * ny, 233u);
  const FftPlan2d fwd = make2d(nx, ny, Direction::Forward, kx, ky);
  const FftPlan2d inv = make2d(nx, ny, Direction::Inverse, kx, ky);

  std::vector<c32> spec(kx * ky);
  std::vector<c32> once(nx * ny);
  fwd.execute(in, spec, 1);
  inv.execute(spec, once, 1);
  std::vector<c32> twice(nx * ny);
  fwd.execute(once, spec, 1);
  inv.execute(spec, twice, 1);
  EXPECT_LT(max_err(twice, once), 5.0 * fft_tol(nx * ny));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TruncFft2d,
                         ::testing::Values(TruncCase2d{8, 8, 2, 4}, TruncCase2d{16, 16, 4, 4},
                                           TruncCase2d{32, 16, 8, 4}, TruncCase2d{16, 32, 16, 8},
                                           TruncCase2d{64, 32, 16, 16},
                                           TruncCase2d{32, 32, 32, 8}));

TEST(Fft2dBatched, BatchedMatchesPerField) {
  const std::size_t nx = 16;
  const std::size_t ny = 32;
  const std::size_t batch = 5;
  const auto in = random_signal(batch * nx * ny, 239u);
  const FftPlan2d plan = make2d(nx, ny, Direction::Forward, 4, 8);
  std::vector<c32> batched(batch * 4 * 8);
  plan.execute(in, batched, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<c32> one(4 * 8);
    plan.execute(std::span<const c32>(in.data() + b * nx * ny, nx * ny), one, 1);
    EXPECT_LT(max_err(std::span<const c32>(batched.data() + b * 4 * 8, 4 * 8), one), 1e-6);
  }
}

TEST(Fft2dDesc, FlopAccountingIsPositiveAndPrunedIsSmaller) {
  const auto full = make2d(256, 128, Direction::Forward);
  const auto pruned = make2d(256, 128, Direction::Forward, 64, 64);
  EXPECT_GT(full.flops_per_field(), 0u);
  EXPECT_LT(pruned.flops_per_field(), full.flops_per_field());
}

TEST(Fft2dDesc, FieldElemCountsFollowDirection) {
  const auto fwd = make2d(32, 64, Direction::Forward, 8, 16);
  EXPECT_EQ(fwd.in_field_elems(), 32u * 64u);
  EXPECT_EQ(fwd.out_field_elems(), 8u * 16u);
  const auto inv = make2d(32, 64, Direction::Inverse, 8, 16);
  EXPECT_EQ(inv.in_field_elems(), 8u * 16u);
  EXPECT_EQ(inv.out_field_elems(), 32u * 64u);
}

TEST(Fft2dDesc, ValidationRejectsDegenerateDescriptors) {
  // The tile-granular X stage must never be handed an empty or undersized
  // slab, so the 2D descriptor is validated up front with 2D-level errors.
  for (const auto dir : {Direction::Forward, Direction::Inverse}) {
    EXPECT_THROW(make2d(1, 16, dir), std::invalid_argument);    // nx == 1
    EXPECT_THROW(make2d(16, 1, dir), std::invalid_argument);    // ny == 1
    EXPECT_THROW(make2d(0, 16, dir), std::invalid_argument);    // nx == 0
    EXPECT_THROW(make2d(16, 0, dir), std::invalid_argument);    // ny == 0
    EXPECT_THROW(make2d(12, 16, dir), std::invalid_argument);   // not pow2
    EXPECT_THROW(make2d(16, 24, dir), std::invalid_argument);
    EXPECT_THROW(make2d(16, 16, dir, 17, 4), std::invalid_argument);  // keep > n
    EXPECT_THROW(make2d(16, 16, dir, 4, 17), std::invalid_argument);
  }
}

TEST(Fft2dDesc, KeepZeroMeansFullAxisBitwise) {
  // keep == 0 is the documented "keep everything" convention; it must be
  // exactly the keep == n plan, not a near-miss.
  const std::size_t nx = 8, ny = 16;
  const auto in = random_signal(nx * ny, 241u);
  std::vector<c32> a(nx * ny), b(nx * ny);
  make2d(nx, ny, Direction::Forward, 0, 0).execute(in, a, 1);
  make2d(nx, ny, Direction::Forward, nx, ny).execute(in, b, 1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].re, b[i].re) << i;
    EXPECT_EQ(a[i].im, b[i].im) << i;
  }
}

TEST(Fft2dEdgeShapes, MinimalKeepAndMinimalDimsMatchReference) {
  // The degenerate corners the fused tile API leans on: keep_x or keep_y of
  // 1 (a single surviving row/bin) and the smallest legal dims (2).
  struct Edge {
    std::size_t nx, ny, kx, ky;
  };
  for (const auto& [nx, ny, kx, ky] :
       {Edge{16, 16, 1, 4}, Edge{16, 16, 4, 1}, Edge{8, 8, 1, 1}, Edge{2, 16, 1, 4},
        Edge{16, 2, 4, 1}, Edge{2, 2, 1, 1}, Edge{2, 2, 2, 2}}) {
    const auto in = random_signal(nx * ny, 251u + static_cast<unsigned>(nx * ny + kx));
    const auto full = reference_fft2d(in, nx, ny);
    std::vector<c32> got(kx * ky);
    make2d(nx, ny, Direction::Forward, kx, ky).execute(in, got, 1);
    for (std::size_t x = 0; x < kx; ++x) {
      for (std::size_t y = 0; y < ky; ++y) {
        EXPECT_NEAR(got[x * ky + y].re, full[x * ny + y].re, fft_tol(nx * ny))
            << nx << "x" << ny << " keep " << kx << "x" << ky << " @" << x << "," << y;
        EXPECT_NEAR(got[x * ky + y].im, full[x * ny + y].im, fft_tol(nx * ny))
            << nx << "x" << ny << " keep " << kx << "x" << ky << " @" << x << "," << y;
      }
    }

    // And the padded inverse accepts the same degenerate spectra.
    const auto spec = random_signal(kx * ky, 257u);
    std::vector<c32> padded(nx * ny, c32{});
    for (std::size_t x = 0; x < kx; ++x) {
      for (std::size_t y = 0; y < ky; ++y) padded[x * ny + y] = spec[x * ky + y];
    }
    std::vector<c32> expect(nx * ny), back(nx * ny);
    make2d(nx, ny, Direction::Inverse).execute(padded, expect, 1);
    make2d(nx, ny, Direction::Inverse, kx, ky).execute(spec, back, 1);
    EXPECT_LT(max_err(back, expect), fft_tol(nx * ny)) << nx << "x" << ny;
  }
}

TEST(Fft2dEdgeShapes, ZeroBatchIsANoOp) {
  const FftPlan2d plan = make2d(8, 8, Direction::Forward, 2, 2);
  std::vector<c32> out(4, c32{1.0f, -1.0f});
  plan.execute(std::span<const c32>{}, out, 0);
  EXPECT_EQ(out[0].re, 1.0f);  // untouched
}

// ------------------------------------------------------------- error numbers

// The X axis of every 2D transform runs the column-block kernel; these are
// its error numbers at the FNO shapes, on both lanes, against a separable
// double-precision DFT.  Each is recorded (RecordProperty, so --gtest_output
// =xml carries it) and bounded: relative L2 below 1e-6, and the max-abs
// error relative to the largest reference magnitude.
using cd = std::complex<double>;

std::vector<cd> unit_roots(std::size_t n, double sign) {
  std::vector<cd> r(n);
  for (std::size_t j = 0; j < n; ++j) {
    r[j] = std::polar(1.0, sign * 2.0 * std::numbers::pi * static_cast<double>(j) /
                               static_cast<double>(n));
  }
  return r;
}

// First mx x my bins of the 2D DFT of an [nx, ny] field.
std::vector<cd> dft2d_truncated(const std::vector<cd>& u, std::size_t nx, std::size_t ny,
                                std::size_t mx, std::size_t my) {
  const auto ex = unit_roots(nx, -1.0);
  const auto ey = unit_roots(ny, -1.0);
  std::vector<cd> a(mx * ny), out(mx * my);
  for (std::size_t k = 0; k < mx; ++k) {
    for (std::size_t x = 0; x < nx; ++x) {
      const cd t = ex[(x * k) % nx];
      for (std::size_t y = 0; y < ny; ++y) a[k * ny + y] += t * u[x * ny + y];
    }
    for (std::size_t c = 0; c < my; ++c) {
      for (std::size_t y = 0; y < ny; ++y) out[k * my + c] += a[k * ny + y] * ey[(y * c) % ny];
    }
  }
  return out;
}

// Zero-padded inverse of [mx, my] stored bins to an [nx, ny] field, scaled
// by 1/(nx ny).  `real`: the X axis is Hermitian-extended (bin 0 projected
// real; mx < nx/2 + 1, so no Nyquist) and the real part returned.
std::vector<cd> idft2d_padded(const std::vector<cd>& s, std::size_t nx, std::size_t ny,
                              std::size_t mx, std::size_t my, bool real) {
  const auto ex = unit_roots(nx, 1.0);
  const auto ey = unit_roots(ny, 1.0);
  std::vector<cd> b(mx * ny), v(nx * ny);
  for (std::size_t k = 0; k < mx; ++k) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t c = 0; c < my; ++c) b[k * ny + y] += s[k * my + c] * ey[(y * c) % ny];
    }
  }
  const double scale = 1.0 / static_cast<double>(nx * ny);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      cd acc = real ? cd(b[y].real(), 0.0) : b[y];
      for (std::size_t k = 1; k < mx; ++k) {
        const cd t = b[k * ny + y] * ex[(x * k) % nx];
        acc += real ? cd(2.0 * t.real(), 0.0) : t;
      }
      v[x * ny + y] = acc * scale;
    }
  }
  return v;
}

struct ErrorNumbers {
  double rel_l2 = 0.0;   // ||got - ref|| / ||ref||
  double max_rel = 0.0;  // max |got - ref| / max |ref|
};

ErrorNumbers error_numbers(const std::vector<cd>& got, const std::vector<cd>& ref) {
  double num = 0.0, den = 0.0, max_abs = 0.0, max_ref = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += std::norm(got[i] - ref[i]);
    den += std::norm(ref[i]);
    max_abs = std::max(max_abs, std::abs(got[i] - ref[i]));
    max_ref = std::max(max_ref, std::abs(ref[i]));
  }
  return {std::sqrt(num / den), max_abs / max_ref};
}

template <class T>
std::vector<cd> widen(const std::vector<T>& v) {
  std::vector<cd> w(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if constexpr (std::is_same_v<T, float>) {
      w[i] = cd(v[i], 0.0);
    } else {
      w[i] = cd(v[i].re, v[i].im);
    }
  }
  return w;
}

void record_and_bound(const std::string& key, const ErrorNumbers& e) {
  ::testing::Test::RecordProperty(key + "_rel_l2", ::testing::PrintToString(e.rel_l2));
  ::testing::Test::RecordProperty(key + "_max_rel", ::testing::PrintToString(e.max_rel));
  EXPECT_LT(e.rel_l2, 1e-6) << key;
  EXPECT_LT(e.max_rel, 1e-6) << key;
}

TEST(Fft2dErrorNumbers, TruncatedForwardAndPaddedInverseBothLanes) {
  struct Shape {
    const char* name;
    std::size_t nx, ny, modes_x, modes_y;
  };
  for (const auto& [name, nx, ny, modes_x, modes_y] :
       {Shape{"fig19", 256, 128, 64, 64}, Shape{"n512", 512, 512, 128, 128}}) {
    const std::string tag(name);
    const auto field = random_signal(nx * ny, 271u);
    const auto reals = turbofno::testing::random_reals(nx * ny, 277u);

    // Complex lane: the FftPlan2d pair.
    {
      std::vector<c32> spec(modes_x * modes_y), back(nx * ny);
      make2d(nx, ny, Direction::Forward, modes_x, modes_y).execute(field, spec, 1);
      record_and_bound(tag + "_c2c_fwd",
                       error_numbers(widen(spec), dft2d_truncated(widen(field), nx, ny,
                                                                  modes_x, modes_y)));
      const auto stored = random_signal(modes_x * modes_y, 281u);
      make2d(nx, ny, Direction::Inverse, modes_x, modes_y).execute(stored, back, 1);
      record_and_bound(tag + "_c2c_inv",
                       error_numbers(widen(back), idft2d_padded(widen(stored), nx, ny, modes_x,
                                                                modes_y, false)));
    }

    // Real lane: the R2C / C2R column-pair X stage with the complex Y stage,
    // keeping modes_x/2 + 1 half-spectrum rows as the real pipelines do.
    {
      const std::size_t mx = modes_x / 2 + 1;
      const FftPlan y_fwd({ny, Direction::Forward, modes_y, 0, true});
      const FftPlan y_inv({ny, Direction::Inverse, 0, modes_y, true});
      std::vector<c32> mid(mx * ny), spec(mx * modes_y);
      rfft2d_x_stage(nx, mx, reals.data(), mid.data(), 1, ny);
      y_fwd.execute(mid, spec, mx);
      record_and_bound(tag + "_real_fwd",
                       error_numbers(widen(spec), dft2d_truncated(widen(reals), nx, ny, mx,
                                                                  modes_y)));
      const auto stored = random_signal(mx * modes_y, 283u);
      std::vector<float> back(nx * ny);
      y_inv.execute(stored, mid, mx);
      irfft2d_x_stage(nx, mx, mid.data(), back.data(), 1, ny);
      record_and_bound(tag + "_real_inv",
                       error_numbers(widen(back),
                                     idft2d_padded(widen(stored), nx, ny, mx, modes_y, true)));
    }
  }
}

}  // namespace
}  // namespace turbofno::fft
