// Real-input FFT plans (R2C / C2R): reference equivalence, conjugate
// symmetry, truncation, round trips, strided entry points, the shared plan
// cache, and the 2D real X stage (one column-block kernel for all its
// layouts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/real2d.hpp"
#include "fft/reference.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::fft_tol;
using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::same_bits;
using turbofno::testing::y_major;

std::vector<c32> as_complex(const std::vector<float>& x) {
  std::vector<c32> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = {x[i], 0.0f};
  return z;
}

class RfftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizes, MatchesComplexReference) {
  const std::size_t n = GetParam();
  const auto x = random_reals(n, 1101u + static_cast<unsigned>(n));
  const auto xc = as_complex(x);
  std::vector<c32> ref(n);
  reference_dft(xc, ref, n);

  const RfftPlan plan(n);
  std::vector<c32> got(n / 2 + 1);
  plan.execute(x, got, 1);
  EXPECT_LT(max_err(got, std::span<const c32>(ref.data(), n / 2 + 1)), fft_tol(n)) << "n=" << n;
}

TEST_P(RfftSizes, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto x = random_reals(n, 1103u);
  const RfftPlan fwd(n);
  const IrfftPlan inv(n);
  std::vector<c32> spec(n / 2 + 1);
  std::vector<float> back(n);
  fwd.execute(x, spec, 1);
  inv.execute(spec, back, 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], fft_tol(n)) << "i=" << i << " n=" << n;
  }
}

TEST_P(RfftSizes, EdgeBinsAreReal) {
  const std::size_t n = GetParam();
  const auto x = random_reals(n, 1109u);
  const RfftPlan plan(n);
  std::vector<c32> spec(n / 2 + 1);
  plan.execute(x, spec, 1);
  EXPECT_NEAR(spec[0].im, 0.0f, 1e-5);
  EXPECT_NEAR(spec[n / 2].im, 0.0f, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, RfftSizes,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256, 1024));

TEST(Rfft, TruncatedEqualsFullPrefix) {
  const std::size_t n = 128;
  const std::size_t keep = 20;
  const auto x = random_reals(n, 1117u);
  std::vector<c32> full(n / 2 + 1);
  RfftPlan(n).execute(x, full, 1);
  std::vector<c32> trunc(keep);
  RfftPlan(n, keep).execute(x, trunc, 1);
  EXPECT_LT(max_err(trunc, std::span<const c32>(full.data(), keep)), 1e-6);
}

TEST(Irfft, TruncatedSpectrumEqualsExplicitZeroPad) {
  const std::size_t n = 64;
  const std::size_t nonzero = 9;
  // Produce a valid half-spectrum, keep a prefix.
  const auto x = random_reals(n, 1123u);
  std::vector<c32> full(n / 2 + 1);
  RfftPlan(n).execute(x, full, 1);

  std::vector<c32> padded(full);
  for (std::size_t k = nonzero; k <= n / 2; ++k) padded[k] = c32{};
  std::vector<float> expect(n);
  IrfftPlan(n).execute(padded, expect, 1);

  std::vector<float> got(n);
  IrfftPlan(n, nonzero).execute(std::span<const c32>(full.data(), nonzero), got, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], expect[i], 1e-5);
}

TEST(Rfft, BatchedMatchesSingle) {
  const std::size_t n = 64;
  const std::size_t batch = 5;
  const auto x = random_reals(batch * n, 1129u);
  const RfftPlan plan(n, 16);
  std::vector<c32> batched(batch * 16);
  plan.execute(x, batched, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<c32> one(16);
    plan.execute(std::span<const float>(x.data() + b * n, n), one, 1);
    EXPECT_LT(max_err(std::span<const c32>(batched.data() + b * 16, 16), one), 0.0 + 1e-7);
  }
}

TEST(Rfft, CosineLandsInItsBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<float> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = std::cos(2.0f * std::numbers::pi_v<float> * static_cast<float>(bin * j) /
                    static_cast<float>(n));
  }
  std::vector<c32> spec(n / 2 + 1);
  RfftPlan(n).execute(x, spec, 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const float expect = k == bin ? static_cast<float>(n) / 2.0f : 0.0f;
    EXPECT_NEAR(spec[k].re, expect, 1e-3) << k;
    EXPECT_NEAR(spec[k].im, 0.0f, 1e-3) << k;
  }
}

TEST(Rfft, RejectsBadSizes) {
  EXPECT_THROW(RfftPlan(2), std::invalid_argument);   // too small for the trick
  EXPECT_THROW(RfftPlan(24), std::invalid_argument);  // not pow2
  EXPECT_THROW(RfftPlan(64, 64), std::invalid_argument);  // keep > n/2+1
  EXPECT_THROW(IrfftPlan(64, 40), std::invalid_argument);
}

TEST(Rfft, LowpassRoundTripIsProjection) {
  // rfft -> keep few modes -> irfft == smoothing; applying twice == once.
  const std::size_t n = 128;
  const std::size_t modes = 8;
  const auto x = random_reals(n, 1151u);
  const RfftPlan fwd(n, modes);
  const IrfftPlan inv(n, modes);
  std::vector<c32> spec(modes);
  std::vector<float> once(n);
  fwd.execute(x, spec, 1);
  inv.execute(spec, once, 1);
  std::vector<float> twice(n);
  fwd.execute(once, spec, 1);
  inv.execute(spec, twice, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(twice[i], once[i], 1e-4);
}

TEST(Rfft, StridedExecuteOneMatchesDense) {
  const std::size_t n = 64;
  const std::size_t keep = 20;
  const auto x = random_reals(2 * n, 1153u);  // column 0 of a 2-wide field
  const RfftPlan plan(n, keep);

  std::vector<float> col(n);
  for (std::size_t j = 0; j < n; ++j) col[j] = x[2 * j];
  std::vector<c32> dense(keep);
  plan.execute(col, dense, 1);

  std::vector<c32> work(plan.scratch_elems());
  for (const std::ptrdiff_t out_stride : {std::ptrdiff_t{1}, std::ptrdiff_t{3}}) {
    std::vector<c32> strided(keep * 3);
    plan.execute_one(x.data(), 2, strided.data(), out_stride, work);
    for (std::size_t k = 0; k < keep; ++k) {
      const c32 got = strided[k * static_cast<std::size_t>(out_stride)];
      EXPECT_NEAR(got.re, dense[k].re, 1e-5) << "k=" << k << " stride=" << out_stride;
      EXPECT_NEAR(got.im, dense[k].im, 1e-5) << "k=" << k << " stride=" << out_stride;
    }
  }
}

TEST(Irfft, StridedExecuteOneMatchesDense) {
  const std::size_t n = 64;
  const std::size_t nonzero = 12;
  const auto x = random_reals(n, 1163u);
  std::vector<c32> spec(n / 2 + 1);
  RfftPlan(n).execute(x, spec, 1);

  const IrfftPlan inv(n, nonzero);
  std::vector<float> dense(n);
  inv.execute(std::span<const c32>(spec.data(), nonzero), dense, 1);

  std::vector<c32> specs(nonzero * 2);
  for (std::size_t k = 0; k < nonzero; ++k) specs[2 * k] = spec[k];
  std::vector<float> strided(n * 2);
  std::vector<c32> work(inv.scratch_elems());
  inv.execute_one(specs.data(), 2, strided.data(), 2, work);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(strided[2 * j], dense[j], 1e-5) << "j=" << j;
  }
}

TEST(PlanCache, RealKeysDoNotAliasComplexPlans) {
  const std::size_t n = 128;
  PlanDesc cd;
  cd.n = n;
  const auto complex_fwd = acquire_plan(cd);
  const auto rfwd = acquire_rfft_plan(n);
  const auto rinv = acquire_irfft_plan(n);
  // Distinct transform kinds under one shape: three distinct objects.
  EXPECT_NE(static_cast<const void*>(complex_fwd.get()), static_cast<const void*>(rfwd.get()));
  EXPECT_NE(static_cast<const void*>(rfwd.get()), static_cast<const void*>(rinv.get()));
  // Re-acquiring is a cache hit yielding the same plan instance.
  plan_cache_reset_stats();
  const auto again = acquire_rfft_plan(n);
  EXPECT_EQ(again.get(), rfwd.get());
  EXPECT_GE(plan_cache_stats().hits, 1u);
  // Truncated flavors key separately from the full-bin ones.
  const auto trunc = acquire_rfft_plan(n, 10);
  EXPECT_NE(trunc.get(), rfwd.get());
  EXPECT_EQ(trunc->keep(), 10u);
}

// ---------------------------------------------------------------- 2D X stage

std::vector<c32> complex_x_stage_reference(std::size_t nx, std::size_t keep_x,
                                           const std::vector<float>& fields_in,
                                           std::size_t fields, std::size_t ny) {
  std::vector<c32> packed(fields_in.size());
  for (std::size_t i = 0; i < fields_in.size(); ++i) packed[i] = {fields_in[i], 0.0f};
  PlanDesc d;
  d.n = nx;
  d.keep = keep_x;
  const FftPlan plan(d);
  std::vector<c32> out(fields * keep_x * ny);
  fft2d_x_stage(plan, packed.data(), out.data(), fields, ny);
  return out;
}

TEST(Rfft2dXStage, MatchesComplexXStageOnRealInput) {
  const std::size_t nx = 32;
  const std::size_t ny = 16;
  const std::size_t fields = 3;
  for (const std::size_t keep_x : {std::size_t{5}, nx / 2 + 1}) {
    const auto in = random_reals(fields * nx * ny, 1171u);
    const auto ref = complex_x_stage_reference(nx, keep_x, in, fields, ny);
    std::vector<c32> got(fields * keep_x * ny);
    rfft2d_x_stage(nx, keep_x, in.data(), got.data(), fields, ny);
    EXPECT_LT(max_err(got, ref), fft_tol(nx)) << "keep_x=" << keep_x;
  }
}

TEST(Rfft2dXStage, TilesMatchWholeField) {
  const std::size_t nx = 16;
  const std::size_t ny = 8;
  const std::size_t fields = 2;
  const std::size_t keep_x = 5;
  const auto in = random_reals(fields * nx * ny, 1181u);

  std::vector<c32> whole(fields * keep_x * ny);
  rfft2d_x_stage(nx, keep_x, in.data(), whole.data(), fields, ny);

  // y-major tile layout: column y of field f lives at rows [y*keep_x, ...).
  std::vector<c32> tiles(fields * ny * keep_x);
  rfft2d_x_stage_to_tiles(*acquire_plan({nx, Direction::Forward}), keep_x, in.data(), fields, 1,
                          ny,
                          [&](std::size_t f, std::size_t y0, std::size_t) {
                            return tiles.data() + (f * ny + y0) * keep_x;
                          });
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t k = 0; k < keep_x; ++k) {
        const c32 a = tiles[(f * ny + y) * keep_x + k];
        const c32 b = whole[(f * keep_x + k) * ny + y];
        EXPECT_NEAR(a.re, b.re, 1e-5) << f << "," << y << "," << k;
        EXPECT_NEAR(a.im, b.im, 1e-5) << f << "," << y << "," << k;
      }
    }
  }
}

TEST(Rfft2dXStage, PlanEntryPointsTakeOnlyTheFullLengthPlanOfTheirDirection) {
  const std::size_t nx = 16;
  const std::size_t ny = 8;
  const auto in = random_reals(nx * ny, 1183u);
  std::vector<c32> spec(5 * ny);
  std::vector<float> out(nx * ny);
  const FftPlan inverse({nx, Direction::Inverse});
  const FftPlan truncated({nx, Direction::Forward, 5});
  EXPECT_THROW(rfft2d_x_stage(inverse, 5, in.data(), spec.data(), 1, ny), std::invalid_argument);
  EXPECT_THROW(rfft2d_x_stage(truncated, 5, in.data(), spec.data(), 1, ny),
               std::invalid_argument);
  const FftPlan forward({nx, Direction::Forward});
  const FftPlan padded({nx, Direction::Inverse, 0, 5});
  EXPECT_THROW(irfft2d_x_stage(forward, 5, spec.data(), out.data(), 1, ny),
               std::invalid_argument);
  EXPECT_THROW(irfft2d_x_stage(padded, 5, spec.data(), out.data(), 1, ny), std::invalid_argument);
}

TEST(Irfft2dXStage, RoundTripRecoversField) {
  const std::size_t nx = 32;
  const std::size_t ny = 8;
  const std::size_t fields = 2;
  const std::size_t keep_x = nx / 2 + 1;
  const auto in = random_reals(fields * nx * ny, 1187u);
  std::vector<c32> spec(fields * keep_x * ny);
  rfft2d_x_stage(nx, keep_x, in.data(), spec.data(), fields, ny);
  std::vector<float> back(fields * nx * ny);
  irfft2d_x_stage(nx, keep_x, spec.data(), back.data(), fields, ny);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(back[i], in[i], fft_tol(nx)) << "i=" << i;
  }
}

TEST(Irfft2dXStage, FromTilesMatchesWholeField) {
  const std::size_t nx = 16;
  const std::size_t ny = 8;
  const std::size_t fields = 2;
  const std::size_t nonzero_x = 5;
  const auto in = random_reals(fields * nx * ny, 1193u);
  std::vector<c32> spec(fields * nonzero_x * ny);
  rfft2d_x_stage(nx, nonzero_x, in.data(), spec.data(), fields, ny);

  std::vector<float> whole(fields * nx * ny);
  irfft2d_x_stage(nx, nonzero_x, spec.data(), whole.data(), fields, ny);

  // Repack the x-major spectrum into the y-major tile layout and scatter.
  std::vector<c32> tiles(fields * ny * nonzero_x);
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t k = 0; k < nonzero_x; ++k) {
        tiles[(f * ny + y) * nonzero_x + k] = spec[(f * nonzero_x + k) * ny + y];
      }
    }
  }
  std::vector<float> from_tiles(fields * nx * ny);
  irfft2d_x_stage_from_tiles(*acquire_plan({nx, Direction::Inverse}), nonzero_x,
                             [&](std::size_t f, std::size_t y0, std::size_t) {
                               return static_cast<const c32*>(tiles.data() +
                                                              (f * ny + y0) * nonzero_x);
                             },
                             from_tiles.data(), fields, 1, ny);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_NEAR(from_tiles[i], whole[i], 1e-5) << "i=" << i;
  }
}

// One column-block kernel behind every real X-stage entry point: the
// x-major and the tile layouts agree bit for bit, forward and inverse, and
// both match the double reference.  ny = 2 and 4 give blocks narrower than
// the column-block width; keep_x covers the DC-only and the Nyquist ends.
struct RealXCase {
  std::size_t nx, ny, keep_x;
};

// Double-reference C2R of one column's stored half-spectrum prefix:
// Re(idft(hermitian_extend(s))), DC (and a stored Nyquist) projected real.
std::vector<c32> reference_c2r_column(const std::vector<c32>& s, std::size_t nx) {
  std::vector<c32> ext(nx, c32{});
  const std::size_t lim = std::min(s.size(), nx / 2);
  ext[0] = {s[0].re, 0.0f};
  for (std::size_t k = 1; k < lim; ++k) {
    ext[k] = s[k];
    ext[nx - k] = conj(s[k]);
  }
  if (s.size() == nx / 2 + 1) ext[nx / 2] = {s[nx / 2].re, 0.0f};
  std::vector<c32> out(nx);
  reference_idft(ext, out, nx);
  return out;
}

class RealOneXKernel : public ::testing::TestWithParam<RealXCase> {};

TEST_P(RealOneXKernel, LayoutsAreBitwiseAndMatchReference) {
  const auto [nx, ny, keep_x] = GetParam();
  const std::size_t fields = 3;
  const unsigned seed = 1201u + static_cast<unsigned>(nx + ny + keep_x);

  const auto in = random_reals(fields * nx * ny, seed);
  std::vector<c32> rows(fields * keep_x * ny), tiles(fields * ny * keep_x);
  rfft2d_x_stage(nx, keep_x, in.data(), rows.data(), fields, ny);
  rfft2d_x_stage_to_tiles(*acquire_plan({nx, Direction::Forward}), keep_x, in.data(), fields, 1,
                          ny,
                          [&](std::size_t f, std::size_t y0, std::size_t) {
                            return tiles.data() + (f * ny + y0) * keep_x;
                          });
  EXPECT_TRUE(same_bits(y_major(rows, fields, keep_x, ny), tiles));

  const auto spec = random_signal(fields * keep_x * ny, seed + 1);
  const auto spec_tiles = y_major(spec, fields, keep_x, ny);
  std::vector<float> from_rows(fields * nx * ny), from_tiles(fields * nx * ny);
  irfft2d_x_stage(nx, keep_x, spec.data(), from_rows.data(), fields, ny);
  irfft2d_x_stage_from_tiles(*acquire_plan({nx, Direction::Inverse}), keep_x,
                             [&](std::size_t f, std::size_t y0, std::size_t) {
                               return static_cast<const c32*>(spec_tiles.data() +
                                                              (f * ny + y0) * keep_x);
                             },
                             from_tiles.data(), fields, 1, ny);
  EXPECT_TRUE(same_bits(from_rows, from_tiles));

  double fwd_err = 0.0;
  double inv_err = 0.0;
  std::vector<c32> col(nx), bins(keep_x), stored(keep_x);
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) col[x] = {in[(f * nx + x) * ny + y], 0.0f};
      reference_dft(col, bins, nx);
      for (std::size_t k = 0; k < keep_x; ++k) {
        const c32 got = rows[(f * keep_x + k) * ny + y];
        fwd_err = std::max({fwd_err, static_cast<double>(std::fabs(got.re - bins[k].re)),
                            static_cast<double>(std::fabs(got.im - bins[k].im))});
        stored[k] = spec[(f * keep_x + k) * ny + y];
      }
      const auto want = reference_c2r_column(stored, nx);
      for (std::size_t x = 0; x < nx; ++x) {
        inv_err = std::max(inv_err, static_cast<double>(std::fabs(
                                        from_rows[(f * nx + x) * ny + y] - want[x].re)));
      }
    }
  }
  EXPECT_LT(fwd_err, fft_tol(nx));
  EXPECT_LT(inv_err, fft_tol(nx));
}

INSTANTIATE_TEST_SUITE_P(Shapes, RealOneXKernel,
                         ::testing::Values(RealXCase{4, 2, 3},        // one pair, Nyquist
                                           RealXCase{8, 2, 1},        // DC only
                                           RealXCase{16, 4, 9},       // two pairs
                                           RealXCase{32, 8, 1},       // four pairs
                                           RealXCase{64, 16, 33},     // one full block
                                           RealXCase{256, 128, 33},   // Figure 19 rows
                                           RealXCase{256, 128, 129},  // Nyquist
                                           RealXCase{1024, 16, 1},
                                           RealXCase{1024, 16, 513}));

}  // namespace
}  // namespace turbofno::fft
