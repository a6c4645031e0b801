// Stockham kernels: the mixed radix-4/2 fast path against its pure radix-2
// verification twin and the reference DFT, and the column-vectorized driver
// against one signal at a time.
#include <gtest/gtest.h>

#include <vector>

#include "fft/reference.hpp"
#include "fft/stockham.hpp"
#include "tensor/simd.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::fft_tol;
using turbofno::testing::max_err;
using turbofno::testing::random_signal;
using turbofno::testing::same_bits;

class StockhamSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StockhamSizes, MixedRadixForwardMatchesReference) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 1001u + static_cast<unsigned>(n));
  std::vector<c32> buf(in);
  std::vector<c32> work(n);
  stockham_forward(buf, work, n);
  std::vector<c32> ref(n);
  reference_dft(in, ref, n);
  EXPECT_LT(max_err(buf, ref), fft_tol(n)) << "n=" << n;
}

TEST_P(StockhamSizes, MixedRadixAgreesWithRadix2) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 1009u + static_cast<unsigned>(n));
  std::vector<c32> mixed(in);
  std::vector<c32> r2(in);
  std::vector<c32> work(n);
  stockham_forward(mixed, work, n);
  stockham_forward_radix2(r2, work, n);
  EXPECT_LT(max_err(mixed, r2), fft_tol(n)) << "n=" << n;
}

TEST_P(StockhamSizes, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 1013u);
  std::vector<c32> buf(in);
  std::vector<c32> work(n);
  stockham_forward(buf, work, n);
  stockham_inverse(buf, work, n, /*scale=*/true);
  EXPECT_LT(max_err(buf, in), fft_tol(n));
}

TEST_P(StockhamSizes, Radix2InverseMatchesMixedInverse) {
  const std::size_t n = GetParam();
  const auto in = random_signal(n, 1019u);
  std::vector<c32> mixed(in);
  std::vector<c32> r2(in);
  std::vector<c32> work(n);
  stockham_inverse(mixed, work, n, true);
  stockham_inverse_radix2(r2, work, n, true);
  EXPECT_LT(max_err(mixed, r2), fft_tol(n));
}

// The column-vectorized driver (the 2D X stages' kernel) against one
// signal at a time.  From n = 16 up, a one-signal transform never leaves
// the SIMD passes, so with whole SIMD widths of columns the two do the same
// arithmetic in the same order and must agree bit for bit; narrower blocks
// and shorter transforms take other instruction forms and agree to rounding.
TEST_P(StockhamSizes, ColumnsMatchOneSignalAtATime) {
  const std::size_t n = GetParam();
  for (const std::size_t cols : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const bool inverse : {false, true}) {
      const auto in = random_signal(n * cols, 1031u + static_cast<unsigned>(n + cols));
      std::vector<c32> io(in);
      std::vector<c32> work(n * cols);
      const c32* got = stockham_columns(io.data(), work.data(), n, cols, inverse, true);
      const bool exact = n >= 16 && cols % simd::Active::planes == 0;
      for (std::size_t c = 0; c < cols; ++c) {
        std::vector<c32> want(n), col(n), one_work(n);
        for (std::size_t x = 0; x < n; ++x) {
          want[x] = in[x * cols + c];
          col[x] = got[x * cols + c];
        }
        if (inverse) {
          stockham_inverse(want, one_work, n, true);
        } else {
          stockham_forward(want, one_work, n);
        }
        if (exact) {
          EXPECT_TRUE(same_bits(col, want)) << "n=" << n << " cols=" << cols << " c=" << c;
        } else {
          EXPECT_LT(max_err(col, want), fft_tol(n)) << "n=" << n << " cols=" << cols;
        }
      }
    }
  }
}

// Odd and even log2(n): the mixed-radix driver takes a radix-2 tail on odd.
INSTANTIATE_TEST_SUITE_P(PowersOfTwo, StockhamSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                                           4096, 8192));

TEST(Stockham, UnscaledInverseIsNTimesScaled) {
  const std::size_t n = 64;
  const auto in = random_signal(n, 1021u);
  std::vector<c32> a(in);
  std::vector<c32> b(in);
  std::vector<c32> work(n);
  stockham_inverse(a, work, n, false);
  stockham_inverse(b, work, n, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a[i].re, b[i].re * n, 1e-3);
    EXPECT_NEAR(a[i].im, b[i].im * n, 1e-3);
  }
}

}  // namespace
}  // namespace turbofno::fft
