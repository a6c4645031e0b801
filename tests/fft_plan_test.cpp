// FFT plan correctness against the O(n^2) double-precision reference DFT.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "fft/twiddle.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::fft_tol;
using turbofno::testing::max_err;
using turbofno::testing::random_signal;
using turbofno::testing::same_bits;

FftPlan make_plan(std::size_t n, Direction dir, std::size_t keep = 0, std::size_t nonzero = 0) {
  PlanDesc d;
  d.n = n;
  d.dir = dir;
  d.keep = keep;
  d.nonzero = nonzero;
  return FftPlan(d);
}

// ---------------------------------------------------------------- full sizes

class FullFftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullFftSizes, ForwardMatchesReference) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 11u + static_cast<unsigned>(n));
  std::vector<c32> out(n);
  std::vector<c32> ref(n);
  make_plan(n, Direction::Forward).execute(in, out, 1);
  reference_dft(in, ref, n);
  EXPECT_LT(max_err(out, ref), fft_tol(n)) << "n=" << n;
}

TEST_P(FullFftSizes, InverseMatchesReference) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 17u + static_cast<unsigned>(n));
  std::vector<c32> out(n);
  std::vector<c32> ref(n);
  make_plan(n, Direction::Inverse).execute(in, out, 1);
  reference_idft(in, ref, n);
  EXPECT_LT(max_err(out, ref), fft_tol(n)) << "n=" << n;
}

TEST_P(FullFftSizes, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 23u + static_cast<unsigned>(n));
  std::vector<c32> freq(n);
  std::vector<c32> back(n);
  make_plan(n, Direction::Forward).execute(in, freq, 1);
  make_plan(n, Direction::Inverse).execute(freq, back, 1);
  EXPECT_LT(max_err(back, in), fft_tol(n));
}

TEST_P(FullFftSizes, ForwardIsLinear) {
  const std::size_t n = GetParam();
  const auto a = random_signal(n, 29u);
  const auto b = random_signal(n, 31u);
  const c32 alpha{0.7f, -0.3f};
  std::vector<c32> mix(n);
  for (std::size_t i = 0; i < n; ++i) mix[i] = alpha * a[i] + b[i];

  const FftPlan plan = make_plan(n, Direction::Forward);
  std::vector<c32> fa(n);
  std::vector<c32> fb(n);
  std::vector<c32> fmix(n);
  plan.execute(a, fa, 1);
  plan.execute(b, fb, 1);
  plan.execute(mix, fmix, 1);
  std::vector<c32> expect(n);
  for (std::size_t i = 0; i < n; ++i) expect[i] = alpha * fa[i] + fb[i];
  EXPECT_LT(max_err(fmix, expect), 4.0 * fft_tol(n));
}

TEST_P(FullFftSizes, ParsevalEnergyConserved) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 37u);
  std::vector<c32> freq(n);
  make_plan(n, Direction::Forward).execute(in, freq, 1);
  double time_e = 0.0;
  double freq_e = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    time_e += norm2(in[i]);
    freq_e += norm2(freq[i]);
  }
  freq_e /= static_cast<double>(n);
  EXPECT_NEAR(freq_e / time_e, 1.0, 1e-3);
}

TEST_P(FullFftSizes, DeltaInputGivesFlatSpectrum) {
  const std::size_t n = GetParam();
  std::vector<c32> in(n, c32{});
  in[0] = {1.0f, 0.0f};
  std::vector<c32> freq(n);
  make_plan(n, Direction::Forward).execute(in, freq, 1);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(freq[k].re, 1.0f, 1e-5);
    EXPECT_NEAR(freq[k].im, 0.0f, 1e-5);
  }
}

TEST_P(FullFftSizes, SingleToneLandsInItsBin) {
  const std::size_t n = GetParam();
  if (n < 4) GTEST_SKIP();
  const std::size_t bin = n / 4 + 1;
  std::vector<c32> in(n);
  for (std::size_t j = 0; j < n; ++j) {
    in[j] = conj(twiddle(j * bin, n));  // e^{+2 pi i j bin / n}
  }
  std::vector<c32> freq(n);
  make_plan(n, Direction::Forward).execute(in, freq, 1);
  for (std::size_t k = 0; k < n; ++k) {
    const float expect = (k == bin) ? static_cast<float>(n) : 0.0f;
    EXPECT_NEAR(freq[k].re, expect, fft_tol(n) * n) << "k=" << k;
    EXPECT_NEAR(freq[k].im, 0.0f, fft_tol(n) * n) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FullFftSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096));

// ------------------------------------------------------------- trunc/zeropad
//
// A filtered plan runs the dense transform on the explicitly zero-padded
// signal and stores a prefix, so its output must equal the dense plan's
// element for element — not merely to rounding.

// Elements whose re or im differ (float ==, so +0 and -0 compare equal).
std::size_t mismatches(std::span<const c32> got, std::span<const c32> want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i].re != want[i].re || got[i].im != want[i].im) ++bad;
  }
  return bad;
}

std::vector<c32> zero_padded(std::span<const c32> stored, std::size_t n) {
  std::vector<c32> padded(n, c32{});
  std::copy(stored.begin(), stored.end(), padded.begin());
  return padded;
}

struct FilterCase {
  std::size_t n;
  std::size_t keep;
  std::size_t nonzero;
};

class FilteredFft : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilteredFft, TruncatedForwardEqualsFullPrefix) {
  const auto [n, keep, nonzero] = GetParam();
  const auto in = random_signal(n, 41u + static_cast<unsigned>(n + keep));
  std::vector<c32> full(n);
  make_plan(n, Direction::Forward).execute(in, full, 1);
  std::vector<c32> trunc(keep);
  make_plan(n, Direction::Forward, keep).execute(in, trunc, 1);
  EXPECT_EQ(mismatches(trunc, std::span<const c32>(full.data(), keep)), 0u);
  (void)nonzero;
}

TEST_P(FilteredFft, TruncatedInverseEqualsFullPrefix) {
  const auto [n, keep, nonzero] = GetParam();
  const auto in = random_signal(n, 42u + static_cast<unsigned>(n + keep));
  std::vector<c32> full(n);
  make_plan(n, Direction::Inverse).execute(in, full, 1);
  std::vector<c32> trunc(keep);
  make_plan(n, Direction::Inverse, keep).execute(in, trunc, 1);
  EXPECT_EQ(mismatches(trunc, std::span<const c32>(full.data(), keep)), 0u);
  (void)nonzero;
}

TEST_P(FilteredFft, ZeroPaddedForwardEqualsExplicitPad) {
  const auto [n, keep, nonzero] = GetParam();
  const auto stored = random_signal(nonzero, 43u + static_cast<unsigned>(n));
  std::vector<c32> expect(n);
  make_plan(n, Direction::Forward).execute(zero_padded(stored, n), expect, 1);
  std::vector<c32> got(n);
  make_plan(n, Direction::Forward, 0, nonzero).execute(stored, got, 1);
  EXPECT_EQ(mismatches(got, expect), 0u);
  (void)keep;
}

TEST_P(FilteredFft, ZeroPaddedInverseEqualsExplicitPad) {
  const auto [n, keep, nonzero] = GetParam();
  const auto spectrum = random_signal(nonzero, 47u);
  std::vector<c32> expect(n);
  make_plan(n, Direction::Inverse).execute(zero_padded(spectrum, n), expect, 1);
  std::vector<c32> got(n);
  make_plan(n, Direction::Inverse, 0, nonzero).execute(spectrum, got, 1);
  EXPECT_EQ(mismatches(got, expect), 0u);
  (void)keep;
}

TEST_P(FilteredFft, TruncatedAndPaddedCompose) {
  const auto [n, keep, nonzero] = GetParam();
  const auto stored = random_signal(nonzero, 53u);
  std::vector<c32> full(n);
  make_plan(n, Direction::Forward).execute(zero_padded(stored, n), full, 1);
  std::vector<c32> got(keep);
  make_plan(n, Direction::Forward, keep, nonzero).execute(stored, got, 1);
  EXPECT_EQ(mismatches(got, std::span<const c32>(full.data(), keep)), 0u);
}

TEST_P(FilteredFft, StridedExecuteOneEqualsDense) {
  // Gather the nonzero prefix at element stride 3 and scatter the kept bins
  // at element stride 5; every other slot of the output stays untouched.
  const auto [n, keep, nonzero] = GetParam();
  constexpr std::size_t kIn = 3;
  constexpr std::size_t kOut = 5;
  const auto stored = random_signal(nonzero, 57u + static_cast<unsigned>(n));
  std::vector<c32> strided(nonzero * kIn, c32{-7.0f, 7.0f});
  for (std::size_t j = 0; j < nonzero; ++j) strided[j * kIn] = stored[j];

  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    std::vector<c32> full(n);
    make_plan(n, dir).execute(zero_padded(stored, n), full, 1);

    const c32 sentinel{-99.0f, 99.0f};
    std::vector<c32> out(keep * kOut, sentinel);
    const FftPlan plan = make_plan(n, dir, keep, nonzero);
    std::vector<c32> work(plan.scratch_elems());
    plan.execute_one(strided.data(), static_cast<std::ptrdiff_t>(kIn), out.data(),
                     static_cast<std::ptrdiff_t>(kOut), work);
    std::vector<c32> got(keep);
    for (std::size_t k = 0; k < keep; ++k) {
      got[k] = out[k * kOut];
      for (std::size_t r = 1; r < kOut; ++r) {
        ASSERT_EQ(out[k * kOut + r], sentinel) << "stray store at bin " << k;
      }
    }
    EXPECT_EQ(mismatches(got, std::span<const c32>(full.data(), keep)), 0u)
        << (dir == Direction::Forward ? "forward" : "inverse");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FilteredFft,
    ::testing::Values(FilterCase{8, 2, 4}, FilterCase{16, 4, 8}, FilterCase{32, 8, 8},
                      FilterCase{64, 16, 32}, FilterCase{64, 64, 16}, FilterCase{128, 32, 64},
                      FilterCase{128, 64, 128}, FilterCase{256, 64, 64}, FilterCase{256, 128, 32},
                      FilterCase{256, 1, 1}, FilterCase{512, 128, 256}, FilterCase{1024, 64, 512},
                      FilterCase{128, 127, 127}, FilterCase{128, 3, 5}, FilterCase{2, 1, 1},
                      FilterCase{4, 3, 2}));

// The fused k-loop and its epilogue call execute_one on one signal at a
// time: a truncated transform of a padded gather row into a k-loop tile row,
// and a zero-padded inverse of one accumulator row, each equal to the dense
// transform's prefix exactly.
TEST(FilteredFft, KLoopTileAndEpilogueRowEqualDense) {
  const std::size_t n = 128;
  const std::size_t modes = 64;
  const std::size_t channels = 3;
  const std::size_t channel_stride = n + 4;  // padded rows, as in the gather buffer
  const std::size_t tile_ld = modes + 8;
  const auto rows = random_signal(channels * channel_stride, 83u);

  const FftPlan fwd = make_plan(n, Direction::Forward, modes);
  std::vector<c32> work(fwd.scratch_elems());
  std::vector<c32> tile(channels * tile_ld);
  for (std::size_t c = 0; c < channels; ++c) {
    fwd.execute_one(rows.data() + c * channel_stride, 1, tile.data() + c * tile_ld, 1, work);
  }
  for (std::size_t c = 0; c < channels; ++c) {
    const std::span<const c32> signal(rows.data() + c * channel_stride, n);
    std::vector<c32> full(n);
    make_plan(n, Direction::Forward).execute(signal, full, 1);
    EXPECT_EQ(mismatches(std::span<const c32>(tile.data() + c * tile_ld, modes),
                         std::span<const c32>(full.data(), modes)),
              0u)
        << "channel " << c;
  }

  const FftPlan inv = make_plan(n, Direction::Inverse, 0, modes);
  const auto row = random_signal(modes, 89u);
  std::vector<c32> got(n);
  inv.execute_one(row.data(), 1, got.data(), 1, work);
  std::vector<c32> expect(n);
  make_plan(n, Direction::Inverse).execute(zero_padded(row, n), expect, 1);
  EXPECT_EQ(mismatches(got, expect), 0u);
}

// ----------------------------------------------------------- batched/strided

TEST(FftBatched, ManySignalsMatchSingleExecutes) {
  const std::size_t n = 128;
  const std::size_t batch = 33;  // deliberately not a multiple of any grain
  const auto in = random_signal(n * batch, 59u);
  const FftPlan plan = make_plan(n, Direction::Forward);

  std::vector<c32> batched(n * batch);
  plan.execute(in, batched, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<c32> one(n);
    plan.execute(std::span<const c32>(in.data() + b * n, n), one, 1);
    EXPECT_LT(max_err(std::span<const c32>(batched.data() + b * n, n), one), 1e-6)
        << "signal " << b;
  }
}

TEST(FftBatched, TruncatedBatchPacksDensely) {
  const std::size_t n = 64;
  const std::size_t keep = 16;
  const std::size_t batch = 7;
  const auto in = random_signal(n * batch, 61u);
  const FftPlan plan = make_plan(n, Direction::Forward, keep);
  std::vector<c32> out(keep * batch, c32{-99.0f, -99.0f});
  plan.execute(in, out, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<c32> full(n);
    make_plan(n, Direction::Forward).execute(std::span<const c32>(in.data() + b * n, n), full, 1);
    EXPECT_LT(max_err(std::span<const c32>(out.data() + b * keep, keep),
                      std::span<const c32>(full.data(), keep)),
              fft_tol(n));
  }
}

TEST(FftStrided, StridedInputMatchesContiguous) {
  const std::size_t n = 64;
  const std::size_t stride = 5;
  const auto dense = random_signal(n, 67u);
  std::vector<c32> strided(n * stride, c32{});
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = dense[i];

  const FftPlan plan = make_plan(n, Direction::Forward);
  std::vector<c32> expect(n);
  plan.execute(dense, expect, 1);

  std::vector<c32> got(n);
  std::vector<c32> work(2 * n);
  plan.execute_one(strided.data(), static_cast<std::ptrdiff_t>(stride), got.data(), 1,
                   std::span<c32>(work));
  EXPECT_LT(max_err(got, expect), 1e-6);
}

TEST(FftStrided, StridedOutputMatchesContiguous) {
  const std::size_t n = 32;
  const std::size_t ostride = 3;
  const auto in = random_signal(n, 71u);
  const FftPlan plan = make_plan(n, Direction::Forward);
  std::vector<c32> expect(n);
  plan.execute(in, expect, 1);

  std::vector<c32> out(n * ostride, c32{});
  std::vector<c32> work(2 * n);
  plan.execute_one(in.data(), 1, out.data(), static_cast<std::ptrdiff_t>(ostride),
                   std::span<c32>(work));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(out[k * ostride].re, expect[k].re, 1e-6);
    EXPECT_NEAR(out[k * ostride].im, expect[k].im, 1e-6);
  }
}

// ------------------------------------------------------------ blocked engine

// Signal c of a batch laid out per `l`, as its own vector.
std::vector<c32> signal_of(const std::vector<c32>& buf, Layout l, std::size_t c,
                           std::size_t len) {
  std::vector<c32> s(len);
  for (std::size_t x = 0; x < len; ++x) s[x] = buf[x * l.row_stride + c * l.col_stride];
  return s;
}

// execute_blocked gives every signal execute_one's bits, whatever the batch
// around it: full 8-signal blocks, the g % 8 tail, and n < 16 plans (which
// run every signal alone).  Dense, truncated, padded and both-filtered
// plans, both directions.
TEST(FftBlocked, EverySignalMatchesExecuteOneBitwise) {
  constexpr std::size_t kMaxG = 17;
  for (const std::size_t n : {8u, 16u, 128u, 256u}) {
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      for (const auto& [keep, nonzero] :
           {std::pair<std::size_t, std::size_t>{0, 0}, {n / 2, 0}, {0, n / 4}, {n / 4, n / 2}}) {
        const FftPlan plan = make_plan(n, dir, keep, nonzero);
        const std::size_t p = plan.desc().nonzero_or_n();
        const std::size_t m = plan.desc().keep_or_n();
        const auto in = random_signal(kMaxG * p, 601u + static_cast<unsigned>(n + keep));
        std::vector<c32> work(plan.blocked_scratch_elems());
        std::vector<std::vector<c32>> want(kMaxG, std::vector<c32>(m));
        for (std::size_t c = 0; c < kMaxG; ++c) {
          plan.execute_one(in.data() + c * p, 1, want[c].data(), 1, work);
        }
        for (std::size_t g = 1; g <= kMaxG; ++g) {
          std::vector<c32> out(g * m);
          plan.execute_blocked(g, in.data(), tile_layout(p), out.data(), tile_layout(m), work);
          for (std::size_t c = 0; c < g; ++c) {
            EXPECT_TRUE(same_bits(signal_of(out, tile_layout(m), c, m), want[c]))
                << "n=" << n << " inverse=" << (dir == Direction::Inverse) << " keep=" << keep
                << " nonzero=" << nonzero << " g=" << g << " c=" << c;
          }
        }
      }
    }
  }
}

// Strided layouts: signals as adjacent columns of a wider field
// (field_layout) and as rows of a padded tile (tile_layout), each way
// round, with two full blocks and a three-signal tail.
TEST(FftBlocked, FieldAndTileLayoutsMatchExecuteOneBitwise) {
  const std::size_t n = 128;
  const std::size_t g = 19;
  const std::size_t field_ld = g + 5;  // field rows wider than the batch
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const FftPlan plan =
        dir == Direction::Forward ? make_plan(n, dir, 40) : make_plan(n, dir, 0, 40);
    const std::size_t p = plan.desc().nonzero_or_n();
    const std::size_t m = plan.desc().keep_or_n();
    const Layout tile_in = tile_layout(p + 3);
    const Layout tile_out = tile_layout(m + 7);
    const auto field = random_signal(p * field_ld, 613u);
    const auto tile = random_signal(g * tile_in.col_stride, 617u);
    std::vector<c32> work(plan.blocked_scratch_elems());

    std::vector<c32> to_tile(g * tile_out.col_stride);
    plan.execute_blocked(g, field.data(), field_layout(field_ld), to_tile.data(), tile_out, work);
    std::vector<c32> to_field(m * field_ld);
    plan.execute_blocked(g, tile.data(), tile_in, to_field.data(), field_layout(field_ld), work);
    for (std::size_t c = 0; c < g; ++c) {
      std::vector<c32> want(m);
      plan.execute_one(field.data() + c, static_cast<std::ptrdiff_t>(field_ld), want.data(), 1,
                       work);
      EXPECT_TRUE(same_bits(signal_of(to_tile, tile_out, c, m), want)) << "field->tile c=" << c;
      plan.execute_one(tile.data() + c * tile_in.col_stride, 1, want.data(), 1, work);
      EXPECT_TRUE(same_bits(signal_of(to_field, field_layout(field_ld), c, m), want))
          << "tile->field c=" << c;
    }
  }
}

TEST(FftStrided, ExecStridedLayoutBatches) {
  // Signals along a "hidden" axis: element stride K, batch stride 1 — the
  // access pattern of the fused kernel's k-loop FFT variant.
  const std::size_t n = 32;
  const std::size_t k_channels = 6;
  const auto dense = random_signal(n * k_channels, 73u);
  // interleaved[j * k_channels + k] = signal k, element j.
  std::vector<c32> interleaved(n * k_channels);
  for (std::size_t k = 0; k < k_channels; ++k) {
    for (std::size_t j = 0; j < n; ++j) interleaved[j * k_channels + k] = dense[k * n + j];
  }
  const FftPlan plan = make_plan(n, Direction::Forward);
  ExecLayout layout;
  layout.in_elem_stride = static_cast<std::ptrdiff_t>(k_channels);
  layout.in_batch_stride = 1;
  layout.out_elem_stride = 1;
  layout.out_batch_stride = static_cast<std::ptrdiff_t>(n);
  std::vector<c32> got(n * k_channels);
  plan.execute_strided(interleaved.data(), got.data(), k_channels, layout);

  std::vector<c32> expect(n * k_channels);
  plan.execute(dense, expect, k_channels);
  EXPECT_LT(max_err(got, expect), 1e-6);
}

// ----------------------------------------------------------------- plan desc

TEST(FftPlanDesc, RejectsNonPowerOfTwo) {
  PlanDesc d;
  d.n = 24;
  EXPECT_THROW(FftPlan{d}, std::invalid_argument);
  d.n = 0;
  EXPECT_THROW(FftPlan{d}, std::invalid_argument);
  d.n = 1;
  EXPECT_THROW(FftPlan{d}, std::invalid_argument);
}

TEST(FftPlanDesc, RejectsOversizedFilter) {
  PlanDesc d;
  d.n = 64;
  d.keep = 65;
  EXPECT_THROW(FftPlan{d}, std::invalid_argument);
  d.keep = 0;
  d.nonzero = 100;
  EXPECT_THROW(FftPlan{d}, std::invalid_argument);
}

TEST(FftPlanDesc, ByteAccountingMatchesFilter) {
  PlanDesc d;
  d.n = 256;
  d.keep = 64;
  d.nonzero = 128;
  const FftPlan plan(d);
  EXPECT_EQ(plan.bytes_read_per_signal(), 128u * sizeof(c32));
  EXPECT_EQ(plan.bytes_written_per_signal(), 64u * sizeof(c32));
  EXPECT_TRUE(plan.pruned());
}

TEST(FftPlanDesc, FullPlanIsNotPruned) {
  PlanDesc d;
  d.n = 256;
  const FftPlan plan(d);
  EXPECT_FALSE(plan.pruned());
  EXPECT_EQ(plan.bytes_read_per_signal(), 256u * sizeof(c32));
}

TEST(FftPlanDesc, UnscaledInverseSkipsDivision) {
  const std::size_t n = 16;
  const auto in = random_signal(n, 79u);
  PlanDesc d;
  d.n = n;
  d.dir = Direction::Inverse;
  d.scale_inverse = false;
  std::vector<c32> unscaled(n);
  FftPlan(d).execute(in, unscaled, 1);
  d.scale_inverse = true;
  std::vector<c32> scaled(n);
  FftPlan(d).execute(in, scaled, 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(unscaled[i].re, scaled[i].re * n, 1e-4);
    EXPECT_NEAR(unscaled[i].im, scaled[i].im * n, 1e-4);
  }
}

}  // namespace
}  // namespace turbofno::fft
