// 1D pipeline ladder: every variant must compute the same spectral
// convolution as a direct reference, traffic counters must shrink up the
// ladder, and results must be independent of thread count.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "fused/ladder.hpp"
#include "runtime/parallel.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::same_bits;

std::vector<c32> reference_spectral_conv(const Spectral1dProblem& p, const std::vector<c32>& u,
                                         const std::vector<c32>& w) {
  return turbofno::testing::reference_spectral_conv(
      {p.batch, p.hidden, p.out_dim, 1, p.n, 1, p.modes}, u, w);
}

struct LadderCase {
  Variant variant;
  Spectral1dProblem prob;
};

std::vector<LadderCase> ladder_cases() {
  const std::vector<Spectral1dProblem> probs = {
      {2, 8, 8, 32, 8},    // tiny
      {3, 16, 8, 64, 16},  // rectangular O < K
      {1, 8, 24, 64, 32},  // O > K
      {4, 12, 12, 128, 64},
      {2, 9, 7, 64, 16},   // hidden not a multiple of k_tb
      {1, 8, 8, 64, 64},   // no truncation (modes == n)
      {2, 8, 8, 64, 1},    // extreme truncation
  };
  std::vector<LadderCase> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

class Ladder1d : public ::testing::TestWithParam<LadderCase> {};

TEST_P(Ladder1d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_signal(prob.input_elems(), 401u + static_cast<unsigned>(prob.n));
  const auto w = random_signal(prob.weight_elems(), 409u);
  std::vector<c32> v(prob.output_elems(), c32{});
  auto pipe = make_pipeline1d(variant, prob);
  pipe->run(u, w, v);
  const auto ref = reference_spectral_conv(prob, u, w);
  EXPECT_LT(rel_err(v, ref), 1e-6) << pipe->name();
}

TEST_P(Ladder1d, SecondRunIsIdentical) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_signal(prob.input_elems(), 419u);
  const auto w = random_signal(prob.weight_elems(), 421u);
  std::vector<c32> v1(prob.output_elems(), c32{});
  std::vector<c32> v2(prob.output_elems(), c32{});
  auto pipe = make_pipeline1d(variant, prob);
  pipe->run(u, w, v1);
  pipe->run(u, w, v2);
  EXPECT_EQ(max_err(v1, v2), 0.0) << pipe->name() << ": reruns must be bit-identical";
}

TEST_P(Ladder1d, ThreadCountDoesNotChangeResult) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_signal(prob.input_elems(), 431u);
  const auto w = random_signal(prob.weight_elems(), 433u);
  auto pipe = make_pipeline1d(variant, prob);

  runtime::set_thread_count(1);
  std::vector<c32> v1(prob.output_elems(), c32{});
  pipe->run(u, w, v1);
  runtime::set_thread_count(4);
  std::vector<c32> v4(prob.output_elems(), c32{});
  pipe->run(u, w, v4);
  runtime::set_thread_count(0);
  EXPECT_EQ(max_err(v1, v4), 0.0) << pipe->name() << ": schedule must not change arithmetic";
}

INSTANTIATE_TEST_SUITE_P(Grid, Ladder1d, ::testing::ValuesIn(ladder_cases()));

// Accuracy floor at the paper's Figure 14 shape (K = 128, n = 128, 64 modes,
// batch 1): every variant within 1e-6 relative L2 error of the
// double-precision DFT + CGEMM reference.
TEST(Ladder1dAccuracy, PaperScaleFloor) {
  const Spectral1dProblem prob{1, 128, 128, 128, 64};
  const auto u = random_signal(prob.input_elems(), 437u);
  const auto w = random_signal(prob.weight_elems(), 439u);
  const auto ref = reference_spectral_conv(prob, u, w);
  for (const auto variant : kAllVariants) {
    auto pipe = make_pipeline1d(variant, prob);
    std::vector<c32> v(prob.output_elems(), c32{});
    pipe->run(u, w, v);
    EXPECT_LT(rel_err(v, ref), 1e-6) << pipe->name();
  }
}

// ----------------------------------------------------------- cross-variant

TEST(Ladder1dEquivalence, AllVariantsAgreeWithBaseline) {
  const Spectral1dProblem prob{3, 24, 16, 128, 32};
  const auto u = random_signal(prob.input_elems(), 443u);
  const auto w = random_signal(prob.weight_elems(), 449u);
  auto base = make_pipeline1d(Variant::PyTorch, prob);
  std::vector<c32> vb(prob.output_elems());
  base->run(u, w, vb);
  for (const auto v : {Variant::FftOpt, Variant::FusedFftGemm, Variant::FusedGemmIfft,
                       Variant::FullyFused}) {
    auto pipe = make_pipeline1d(v, prob);
    std::vector<c32> vo(prob.output_elems());
    pipe->run(u, w, vo);
    EXPECT_LT(rel_err(vo, vb), 1e-4) << pipe->name();
  }
}

// The rows share one arithmetic and differ only in data movement: the
// three k-loop rows accumulate through KLoopGemm (one signal per GEMM) and
// PyTorch/FftOpt through cgemm_batched, and both run each output's
// k-ordered cmadd chain with the same rounding, so all five rows are
// bitwise-identical on every SIMD backend.
template <class T>
void expect_row_groups(const Spectral1dProblem& prob, const std::vector<T>& u,
                       const std::vector<c32>& w) {
  std::vector<std::vector<T>> out;  // kAllVariants (ladder) order
  for (const auto v : kAllVariants) {
    auto pipe = make_pipeline1d(v, prob);
    std::vector<T> vo(prob.output_elems());
    if constexpr (std::is_same_v<T, float>) {
      pipe->run_batched_real(u, w, vo, prob.batch);
    } else {
      pipe->run(u, w, vo);
    }
    out.push_back(std::move(vo));
  }
  EXPECT_TRUE(same_bits(out[0], out[1])) << "PyTorch vs FftOpt";
  EXPECT_TRUE(same_bits(out[2], out[3])) << "FusedFftGemm vs FusedGemmIfft";
  EXPECT_TRUE(same_bits(out[2], out[4])) << "FusedFftGemm vs FullyFused";
  EXPECT_TRUE(same_bits(out[4], out[0])) << "k-loop rows vs batched rows";
}

TEST(Ladder1dEquivalence, RowGroupsAreBitwiseOnBothLanes) {
  // The last shape has out_dim > 32 and modes > 32, neither a whole tile,
  // and a short last k-tile: partial row tiles, partial f tiles and kc < 8
  // run on both lanes (21 kept bins on the real lane).
  for (const Spectral1dProblem prob : {Spectral1dProblem{3, 24, 16, 128, 32},
                                       Spectral1dProblem{2, 9, 7, 64, 16},
                                       Spectral1dProblem{2, 37, 41, 64, 40}}) {
    const auto w = random_signal(prob.weight_elems(), 449u);
    expect_row_groups(prob, random_signal(prob.input_elems(), 443u), w);
    expect_row_groups(prob, random_reals(prob.input_elems(), 467u), w);
  }
}

// KLoopGemm's k-tile is deeper than the paper's k_tb = 8.  Hidden dims
// below, at and around one and two tiles leave a short last k-tile (or
// only one), and out_dim = 9 leaves a one-row tail of the column-blocked
// iFFT epilogue; FullyFused still computes FftOpt's bits on both lanes.
TEST(Ladder1dEquivalence, DeepKTileEdgesMatchFftOptOnBothLanes) {
  for (const std::size_t hidden : {1u, 7u, 40u, 63u, 64u, 65u, 130u}) {
    const Spectral1dProblem prob{2, hidden, 9, 64, 24};
    const auto w = random_signal(prob.weight_elems(), 487u);
    const auto u = random_signal(prob.input_elems(), 491u);
    const auto ur = random_reals(prob.input_elems(), 499u);
    std::vector<c32> want(prob.output_elems()), got(prob.output_elems());
    std::vector<float> want_r(prob.output_elems()), got_r(prob.output_elems());
    make_pipeline1d(Variant::FftOpt, prob)->run(u, w, want);
    make_pipeline1d(Variant::FullyFused, prob)->run(u, w, got);
    make_pipeline1d(Variant::FftOpt, prob)->run_batched_real(ur, w, want_r, prob.batch);
    make_pipeline1d(Variant::FullyFused, prob)->run_batched_real(ur, w, got_r, prob.batch);
    EXPECT_TRUE(same_bits(got, want)) << "c2c hidden=" << hidden;
    EXPECT_TRUE(same_bits(got_r, want_r)) << "real hidden=" << hidden;
  }
}

// -------------------------------------------------------------- counters

TEST(Ladder1dCounters, TrafficShrinksUpTheLadder) {
  const Spectral1dProblem prob{4, 32, 32, 256, 64};
  const auto u = random_signal(prob.input_elems(), 457u);
  const auto w = random_signal(prob.weight_elems(), 461u);
  std::vector<c32> v(prob.output_elems());

  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> launches;
  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline1d(var, prob);
    pipe->run(u, w, v);
    bytes.push_back(pipe->counters().total().bytes_total());
    launches.push_back(pipe->counters().total().kernel_launches);
  }
  // PyTorch(0) > FftOpt(1) > partial fusions(2,3) > fully fused(4).
  EXPECT_GT(bytes[0], bytes[1]);
  EXPECT_GT(bytes[1], bytes[2]);
  EXPECT_GT(bytes[1], bytes[3]);
  EXPECT_GT(bytes[2], bytes[4]);
  EXPECT_GT(bytes[3], bytes[4]);
  // Launches: 5, 3, 2, 2, 1.
  EXPECT_EQ(launches[0], 5u);
  EXPECT_EQ(launches[1], 3u);
  EXPECT_EQ(launches[2], 2u);
  EXPECT_EQ(launches[3], 2u);
  EXPECT_EQ(launches[4], 1u);
}

TEST(Ladder1dCounters, FullyFusedMovesOnlyInOutAndWeights) {
  const Spectral1dProblem prob{2, 16, 16, 128, 32};
  const auto u = random_signal(prob.input_elems(), 463u);
  const auto w = random_signal(prob.weight_elems(), 467u);
  std::vector<c32> v(prob.output_elems());
  auto pipe = make_pipeline1d(Variant::FullyFused, prob);
  pipe->run(u, w, v);
  const auto total = pipe->counters().total();
  const std::uint64_t expect_read = (prob.input_elems() + prob.weight_elems()) * sizeof(c32);
  const std::uint64_t expect_write = prob.output_elems() * sizeof(c32);
  EXPECT_EQ(total.bytes_read, expect_read);
  EXPECT_EQ(total.bytes_written, expect_write);
}

TEST(Ladder1dCounters, PrunedFlopsBelowBaselineFlops) {
  const Spectral1dProblem prob{2, 16, 16, 256, 64};
  const auto u = random_signal(prob.input_elems(), 479u);
  const auto w = random_signal(prob.weight_elems(), 487u);
  std::vector<c32> v(prob.output_elems());
  auto base = make_pipeline1d(Variant::PyTorch, prob);
  auto fused = make_pipeline1d(Variant::FullyFused, prob);
  base->run(u, w, v);
  fused->run(u, w, v);
  EXPECT_LT(fused->counters().total().flops, base->counters().total().flops)
      << "truncation + pruning must reduce FLOPs";
}

TEST(Ladder1dProblem, ValidationRejectsBadShapes) {
  Spectral1dProblem p{0, 8, 8, 64, 16};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {1, 8, 8, 63, 16};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {1, 8, 8, 64, 65};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {1, 8, 8, 64, 0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace turbofno::fused
