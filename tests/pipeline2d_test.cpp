// 2D pipeline ladder: reference equivalence, counter ordering, determinism.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "fused/ladder.hpp"
#include "runtime/parallel.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral2dProblem;
using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::same_bits;

std::vector<c32> reference_spectral_conv2d(const Spectral2dProblem& p, const std::vector<c32>& u,
                                           const std::vector<c32>& w) {
  return turbofno::testing::reference_spectral_conv(
      {p.batch, p.hidden, p.out_dim, p.nx, p.ny, p.modes_x, p.modes_y}, u, w);
}

struct LadderCase2d {
  Variant variant;
  Spectral2dProblem prob;
};

std::vector<LadderCase2d> ladder_cases() {
  const std::vector<Spectral2dProblem> probs = {
      {1, 8, 8, 16, 16, 4, 4},
      {2, 8, 8, 16, 32, 8, 8},
      {1, 12, 6, 32, 16, 8, 4},   // hidden not multiple of k_tb, O < K
      {2, 6, 10, 16, 16, 16, 16}, // no truncation
      {1, 8, 8, 32, 32, 1, 1},    // extreme truncation
  };
  std::vector<LadderCase2d> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

class Ladder2d : public ::testing::TestWithParam<LadderCase2d> {};

TEST_P(Ladder2d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_signal(prob.input_elems(), 601u + static_cast<unsigned>(prob.nx));
  const auto w = random_signal(prob.weight_elems(), 607u);
  std::vector<c32> v(prob.output_elems(), c32{});
  auto pipe = make_pipeline2d(variant, prob);
  pipe->run(u, w, v);
  const auto ref = reference_spectral_conv2d(prob, u, w);
  EXPECT_LT(rel_err(v, ref), 1e-6) << pipe->name();
}

TEST_P(Ladder2d, ThreadCountDoesNotChangeResult) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_signal(prob.input_elems(), 613u);
  const auto w = random_signal(prob.weight_elems(), 617u);
  auto pipe = make_pipeline2d(variant, prob);
  runtime::set_thread_count(1);
  std::vector<c32> v1(prob.output_elems(), c32{});
  pipe->run(u, w, v1);
  runtime::set_thread_count(3);
  std::vector<c32> v3(prob.output_elems(), c32{});
  pipe->run(u, w, v3);
  runtime::set_thread_count(0);
  EXPECT_EQ(max_err(v1, v3), 0.0) << pipe->name();
}

INSTANTIATE_TEST_SUITE_P(Grid, Ladder2d, ::testing::ValuesIn(ladder_cases()));

// Accuracy floor at the paper's Figure 19 shape (K = 40, 256 x 128, 64 x 64
// modes, batch 1): every variant within 1e-6 relative L2 error of the
// double-precision DFT + CGEMM reference.
TEST(Ladder2dAccuracy, PaperScaleFloor) {
  const Spectral2dProblem prob{1, 40, 40, 256, 128, 64, 64};
  const auto u = random_signal(prob.input_elems(), 637u);
  const auto w = random_signal(prob.weight_elems(), 641u);
  const auto ref = reference_spectral_conv2d(prob, u, w);
  for (const auto variant : kAllVariants) {
    auto pipe = make_pipeline2d(variant, prob);
    std::vector<c32> v(prob.output_elems(), c32{});
    pipe->run(u, w, v);
    EXPECT_LT(rel_err(v, ref), 1e-6) << pipe->name();
  }
}

TEST(Ladder2dEquivalence, AllVariantsAgreeWithBaseline) {
  const Spectral2dProblem prob{2, 16, 12, 32, 64, 8, 16};
  const auto u = random_signal(prob.input_elems(), 619u);
  const auto w = random_signal(prob.weight_elems(), 631u);
  auto base = make_pipeline2d(Variant::PyTorch, prob);
  std::vector<c32> vb(prob.output_elems());
  base->run(u, w, vb);
  for (const auto v : {Variant::FftOpt, Variant::FusedFftGemm, Variant::FusedGemmIfft,
                       Variant::FullyFused}) {
    auto pipe = make_pipeline2d(v, prob);
    std::vector<c32> vo(prob.output_elems());
    pipe->run(u, w, vo);
    EXPECT_LT(rel_err(vo, vb), 1e-4) << pipe->name();
  }
}

// The 2D rows agree exactly like the 1D rows (see pipeline1d_test): the
// k-loop rows and the batched rows are bitwise-identical on both lanes.
template <class T>
void expect_row_groups(const Spectral2dProblem& prob, const std::vector<T>& u,
                       const std::vector<c32>& w) {
  std::vector<std::vector<T>> out;  // kAllVariants (ladder) order
  for (const auto v : kAllVariants) {
    auto pipe = make_pipeline2d(v, prob);
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

TEST(Ladder2dEquivalence, RowGroupsAreBitwiseOnBothLanes) {
  // The last shape has out_dim > 32 and modes_y > 32, neither a whole
  // tile, and a short last k-tile: partial row tiles, partial f tiles and
  // kc < 8 run on both lanes.
  for (const Spectral2dProblem prob : {Spectral2dProblem{2, 16, 12, 32, 64, 8, 16},
                                       Spectral2dProblem{1, 12, 6, 32, 16, 8, 4},
                                       Spectral2dProblem{1, 13, 41, 16, 64, 8, 40}}) {
    const auto w = random_signal(prob.weight_elems(), 631u);
    expect_row_groups(prob, random_signal(prob.input_elems(), 619u), w);
    expect_row_groups(prob, random_reals(prob.input_elems(), 647u), w);
  }
}

TEST(Ladder2dCounters, TrafficShrinksUpTheLadder) {
  const Spectral2dProblem prob{2, 16, 16, 64, 64, 16, 16};
  const auto u = random_signal(prob.input_elems(), 641u);
  const auto w = random_signal(prob.weight_elems(), 643u);
  std::vector<c32> v(prob.output_elems());
  std::vector<std::uint64_t> bytes;
  std::vector<std::uint64_t> launches;
  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline2d(var, prob);
    pipe->run(u, w, v);
    bytes.push_back(pipe->counters().total().bytes_total());
    launches.push_back(pipe->counters().total().kernel_launches);
  }
  EXPECT_GT(bytes[0], bytes[1]);  // baseline moves the most
  EXPECT_GE(bytes[1], bytes[2]);
  EXPECT_GE(bytes[1], bytes[3]);
  EXPECT_GE(bytes[2], bytes[4]);
  EXPECT_GE(bytes[3], bytes[4]);
  EXPECT_EQ(launches[0], 5u);
  EXPECT_EQ(launches[1], 5u);  // 2D FftOpt: x-fft, y-fft, gemm, y-ifft, x-ifft
  EXPECT_EQ(launches[2], 4u);
  EXPECT_EQ(launches[3], 4u);
  EXPECT_EQ(launches[4], 3u);
}

TEST(Ladder2dCounters, FirstStageDominates2dTraffic) {
  // The paper's Section 5.2 observation: in 2D the along-X FFT reads the
  // full field and dominates, so fusion gains are smaller than in 1D.
  const Spectral2dProblem prob{2, 32, 32, 128, 128, 32, 32};
  const auto u = random_signal(prob.input_elems(), 647u);
  const auto w = random_signal(prob.weight_elems(), 653u);
  std::vector<c32> v(prob.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, prob);
  pipe->run(u, w, v);
  const auto& stages = pipe->counters().stages();
  ASSERT_GE(stages.size(), 3u);
  const auto total = pipe->counters().total();
  std::uint64_t x_stage_bytes = 0;
  for (const auto& s : stages) {
    if (s.name == "fft-x-trunc" || s.name == "ifft-x-pad") x_stage_bytes += s.bytes_total();
  }
  EXPECT_GT(static_cast<double>(x_stage_bytes), 0.5 * static_cast<double>(total.bytes_total()));
}

TEST(Ladder2dProblem, ValidationRejectsBadShapes) {
  Spectral2dProblem p{1, 8, 8, 15, 16, 4, 4};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {1, 8, 8, 16, 16, 17, 4};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {1, 0, 8, 16, 16, 4, 4};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace turbofno::fused
