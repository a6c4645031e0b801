// Truncated and zero-padded plans: correctness for every (n, m, p), and the
// Figure 5 operation counts of the paper's pruned butterfly network.
#include <gtest/gtest.h>

#include <vector>

#include "fft/opcount.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "fft/twiddle.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::fft_tol;
using turbofno::testing::max_err;
using turbofno::testing::random_signal;

// --------------------------------------------------------------- block_need

// Brute force: bins below m whose index lands in block b at depth d.
std::size_t block_need_brute(std::size_t b, std::size_t d, std::size_t m) {
  const std::size_t r = bit_reverse(b, d);
  const std::size_t stride = std::size_t{1} << d;
  std::size_t count = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (k % stride == r) ++count;
  }
  return count;
}

TEST(BlockNeed, MatchesBruteForceOverGrid) {
  for (std::size_t d = 0; d <= 5; ++d) {
    const std::size_t blocks = std::size_t{1} << d;
    for (std::size_t m = 1; m <= 64; ++m) {
      for (std::size_t b = 0; b < blocks; ++b) {
        EXPECT_EQ(block_need(b, d, m), block_need_brute(b, d, m))
            << "b=" << b << " d=" << d << " m=" << m;
      }
    }
  }
}

TEST(BlockNeed, ChildrenSplitCeilFloor) {
  // need(even child) == ceil(need/2), need(odd child) == floor(need/2).
  for (std::size_t d = 0; d <= 4; ++d) {
    const std::size_t blocks = std::size_t{1} << d;
    for (std::size_t m = 1; m <= 48; ++m) {
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t need = block_need(b, d, m);
        EXPECT_EQ(block_need(2 * b, d + 1, m), (need + 1) / 2);
        EXPECT_EQ(block_need(2 * b + 1, d + 1, m), need / 2);
      }
    }
  }
}

// ------------------------------------------------------ filtered correctness

struct PrunedCase {
  std::size_t n;
  std::size_t m;
  std::size_t p;
};

FftPlan filtered_plan(std::size_t n, std::size_t m, std::size_t p, Direction dir) {
  PlanDesc d;
  d.n = n;
  d.dir = dir;
  d.keep = m;
  d.nonzero = p;
  return FftPlan(d);
}

class FilteredPlan : public ::testing::TestWithParam<PrunedCase> {};

TEST_P(FilteredPlan, ForwardMatchesReference) {
  const auto [n, m, p] = GetParam();
  const auto stored = random_signal(p, 101u + static_cast<unsigned>(n * 7 + m * 3 + p));
  std::vector<c32> got(m);
  filtered_plan(n, m, p, Direction::Forward).execute(stored, got, 1);

  std::vector<c32> ref(m);
  reference_dft(stored, ref, n);
  EXPECT_LT(max_err(got, ref), fft_tol(n)) << "n=" << n << " m=" << m << " p=" << p;
}

TEST_P(FilteredPlan, InverseMatchesReference) {
  const auto [n, m, p] = GetParam();
  const auto stored = random_signal(p, 103u + static_cast<unsigned>(n + m + p));
  std::vector<c32> got(m);
  filtered_plan(n, m, p, Direction::Inverse).execute(stored, got, 1);

  std::vector<c32> ref(m);
  reference_idft(stored, ref, n);
  EXPECT_LT(max_err(got, ref), fft_tol(n));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FilteredPlan,
    ::testing::Values(PrunedCase{4, 1, 4}, PrunedCase{4, 2, 4}, PrunedCase{4, 4, 4},
                      PrunedCase{8, 1, 8}, PrunedCase{8, 3, 8}, PrunedCase{8, 8, 2},
                      PrunedCase{16, 4, 16}, PrunedCase{16, 16, 4}, PrunedCase{16, 5, 7},
                      PrunedCase{32, 8, 32}, PrunedCase{32, 32, 8}, PrunedCase{64, 16, 64},
                      PrunedCase{64, 17, 33}, PrunedCase{128, 32, 128}, PrunedCase{128, 64, 64},
                      PrunedCase{256, 64, 256}, PrunedCase{256, 128, 128},
                      PrunedCase{256, 64, 64}, PrunedCase{512, 128, 512},
                      PrunedCase{1024, 256, 1024}, PrunedCase{1024, 1, 1}));

// Exhaustive small sweep: every (m, p) for n up to 32.
TEST(FilteredPlanExhaustive, AllFiltersUpTo32) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    for (std::size_t m = 1; m <= n; ++m) {
      for (std::size_t p = 1; p <= n; ++p) {
        const auto stored = random_signal(p, static_cast<unsigned>(n * 1000 + m * 37 + p));
        std::vector<c32> got(m);
        filtered_plan(n, m, p, Direction::Forward).execute(stored, got, 1);
        std::vector<c32> ref(m);
        reference_dft(stored, ref, n);
        ASSERT_LT(max_err(got, ref), fft_tol(n)) << "n=" << n << " m=" << m << " p=" << p;
      }
    }
  }
}

// ----------------------------------------------------------------- Figure 5

TEST(Figure5, FourPointTruncation25PercentIsThreeOps) {
  // Paper Fig 5(a): 4-point FFT keeping 1 of 4 outputs -> 3 ops (37.5%).
  EXPECT_EQ(count_pruned_ops(4, 1, 4).unit_ops, 3u);
  EXPECT_DOUBLE_EQ(pruned_fraction(4, 1, 4), 0.375);
}

TEST(Figure5, FourPointTruncation50PercentIsSixOps) {
  // Paper Fig 5(b): keeping 2 of 4 -> 6 ops (75%).
  EXPECT_EQ(count_pruned_ops(4, 2, 4).unit_ops, 6u);
  EXPECT_DOUBLE_EQ(pruned_fraction(4, 2, 4), 0.75);
}

TEST(Figure5, FourPointFullIsEightOps) {
  // Paper Fig 5(c): baseline two stages, 8 ops total.
  EXPECT_EQ(count_full_ops(4).unit_ops, 8u);
}

TEST(Figure5, ComputationReductionBandMatchesPaper) {
  // Section 5.1: "pruning reduces computation by 25%-67.5%".  The band
  // describes the combined forward-truncated + inverse-zero-padded pruning
  // at the per-thread FFT granularity the kernel uses (4..32 points, paper
  // Table 1: n1 = 8, n2 = 16) with 25% of the spectrum kept.
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const std::size_t m = n / 4;
    const auto fwd = count_pruned_ops(n, m, n).unit_ops;   // truncated FFT
    const auto inv = count_pruned_ops(n, n, m).unit_ops;   // zero-padded iFFT
    const auto full = 2 * count_full_ops(n).unit_ops;
    const double reduction = 1.0 - static_cast<double>(fwd + inv) / static_cast<double>(full);
    EXPECT_GE(reduction, 0.25) << "n=" << n;
    EXPECT_LE(reduction, 0.675) << "n=" << n;
  }
  // Known anchors: 4-pt/25% -> 62.5%, 32-pt/25% -> 25.0%.
  EXPECT_DOUBLE_EQ(
      1.0 - static_cast<double>(count_pruned_ops(4, 1, 4).unit_ops +
                                count_pruned_ops(4, 4, 1).unit_ops) /
                static_cast<double>(2 * count_full_ops(4).unit_ops),
      0.625);
}

TEST(Figure5, MoreTruncationPrunesMore) {
  for (std::size_t n : {64u, 256u}) {
    for (std::size_t m = 1; m < n; m *= 2) {
      EXPECT_LE(count_pruned_ops(n, m, n).unit_ops, count_pruned_ops(n, 2 * m, n).unit_ops)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(OpCount, FullCountMatchesClassicFormula) {
  // Unpruned: log2(n) stages x n unit ops (every butterfly output).
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    EXPECT_EQ(count_full_ops(n).unit_ops, n * log2u(n));
  }
}

TEST(OpCount, MonotoneInKeep) {
  for (std::size_t m = 1; m <= 128; ++m) {
    EXPECT_LE(count_pruned_ops(128, m, 128).unit_ops,
              count_pruned_ops(128, std::min<std::size_t>(m + 1, 128), 128).unit_ops);
  }
}

TEST(OpCount, MonotoneInNonzeroPrefix) {
  for (std::size_t p = 1; p < 128; ++p) {
    EXPECT_LE(count_pruned_ops(128, 128, p).unit_ops,
              count_pruned_ops(128, 128, p + 1).unit_ops);
  }
}

TEST(OpCount, ZeroPadHalvesFirstStageMultiplies) {
  // With p <= n/2, stage one has no full butterflies at all: only copy +
  // twiddle-scale lanes, so cadd count drops by n/2 relative to full.
  const OpCount full = count_full_ops(64);
  const OpCount padded = count_pruned_ops(64, 64, 32);
  EXPECT_LT(padded.cadd, full.cadd);
  EXPECT_LT(padded.flops(), full.flops());
}

TEST(OpCount, FlopsOfPlanMatchCounter) {
  PlanDesc d;
  d.n = 256;
  d.keep = 64;
  const FftPlan plan(d);
  EXPECT_EQ(plan.flops_per_signal(), count_pruned_ops(256, 64, 256).flops());
  EXPECT_EQ(plan.unit_ops_per_signal(), count_pruned_ops(256, 64, 256).unit_ops);
}

}  // namespace
}  // namespace turbofno::fft
