// Spectral convolution layers: backend equivalence, the real lane's Auto
// sibling, per-mode extension, linearity, and weight initialization.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "core/spectral_conv.hpp"
#include "fft/plan.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::same_bits;

/// One layer shape per dimension.
template <class Conv>
auto test_problem() {
  if constexpr (std::is_same_v<Conv, SpectralConv1d>) {
    return baseline::Spectral1dProblem{2, 16, 16, 64, 16};
  } else {
    return baseline::Spectral2dProblem{1, 8, 8, 16, 32, 4, 8};
  }
}

template <class Conv>
class SpectralConvTest : public ::testing::Test {};
using Layers = ::testing::Types<SpectralConv1d, SpectralConv2d>;
TYPED_TEST_SUITE(SpectralConvTest, Layers);

TYPED_TEST(SpectralConvTest, BackendsProduceIdenticalOperators) {
  // The five rows are one bitwise group on every build.
  const auto prob = test_problem<TypeParam>();
  const auto u = random_signal(prob.input_elems(), 801u);
  std::vector<c32> want;
  for (const auto backend : fused::kAllVariants) {
    TypeParam conv(prob, backend, WeightScheme::Shared, /*seed=*/99u);
    std::vector<c32> v(prob.output_elems(), c32{});
    conv.forward(u, v);
    if (want.empty()) {
      want = std::move(v);
    } else {
      EXPECT_TRUE(same_bits(v, want)) << fused::variant_name(backend);
    }
  }
}

TEST(SpectralConv1dTest, AutoRealLaneRunsOnItsOwnRow) {
  // The complex lane's fused accumulator outgrows Auto's cache budget here
  // and the real lane's half spectrum does not, so Auto tunes the lanes to
  // different rows: the layer serves the real lane from a sibling pipeline.
  const baseline::Spectral1dProblem prob{1, 512, 512, 512, 256};
  ASSERT_EQ(fused::resolve_variant(Backend::Auto, prob, false), Backend::FftOpt);
  ASSERT_EQ(fused::resolve_variant(Backend::Auto, prob, true), Backend::FullyFused);
  SpectralConv1d conv(prob, Backend::Auto, WeightScheme::Shared, 21u);
  SpectralConv1d complex_row(prob, Backend::FftOpt, WeightScheme::Shared, 21u);
  SpectralConv1d real_row(prob, Backend::FullyFused, WeightScheme::Shared, 21u);
  const auto u = random_signal(prob.input_elems(), 851u);
  const auto ur = random_reals(prob.input_elems(), 853u);
  const auto run = [&](SpectralConv1d& layer) {
    std::vector<c32> v(prob.output_elems());
    layer.forward(u, v);
    return v;
  };
  const auto run_real = [&](SpectralConv1d& layer) {
    std::vector<float> v(prob.output_elems());
    layer.forward_real(ur, v, prob.batch);
    return v;
  };
  const auto want = run(complex_row);
  const auto want_real = run_real(real_row);

  EXPECT_TRUE(same_bits(run(conv), want));
  const auto complex_bytes = conv.counters().total().bytes_total();
  EXPECT_TRUE(same_bits(run_real(conv), want_real));
  // The real lane ran elsewhere: the complex pipeline's counters still hold
  // its own run.
  EXPECT_EQ(conv.counters().name(), "fftopt-1d");
  EXPECT_EQ(conv.counters().total().bytes_total(), complex_bytes);
  EXPECT_TRUE(same_bits(run(conv), want));
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  EXPECT_TRUE(same_bits(run_real(conv), want_real));
  EXPECT_EQ(runtime::tls_scratch().bytes_reserved(), reserved);
}

TEST(SpectralConv1dTest, SameSeedSameWeights) {
  SpectralConv1d a(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 7u);
  SpectralConv1d b(1, 8, 8, 32, 8, Backend::PyTorch, WeightScheme::Shared, 7u);
  EXPECT_EQ(max_err(a.weights(), b.weights()), 0.0);
}

TEST(SpectralConv1dTest, DifferentSeedDifferentWeights) {
  SpectralConv1d a(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 7u);
  SpectralConv1d b(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 8u);
  EXPECT_GT(max_err(a.weights(), b.weights()), 0.0);
}

TEST(SpectralConv1dTest, OperatorIsLinear) {
  const std::size_t B = 1;
  const std::size_t K = 8;
  const std::size_t N = 64;
  SpectralConv1d conv(B, K, K, N, 16, Backend::FullyFused);
  const auto u1 = random_signal(B * K * N, 811u);
  const auto u2 = random_signal(B * K * N, 821u);
  std::vector<c32> sum_in(B * K * N);
  for (std::size_t i = 0; i < sum_in.size(); ++i) sum_in[i] = u1[i] + u2[i];

  std::vector<c32> v1(B * K * N);
  std::vector<c32> v2(B * K * N);
  std::vector<c32> vsum(B * K * N);
  conv.forward(u1, v1);
  conv.forward(u2, v2);
  conv.forward(sum_in, vsum);
  std::vector<c32> expect(B * K * N);
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = v1[i] + v2[i];
  EXPECT_LT(rel_err(vsum, expect), 1e-4);
}

TEST(SpectralConv1dTest, OutputIsBandLimited) {
  // The operator projects onto the first `modes` frequencies: transforming
  // the output again must show no energy above the cutoff.
  const std::size_t N = 64;
  const std::size_t M = 8;
  SpectralConv1d conv(1, 4, 4, N, M, Backend::FullyFused);
  const auto u = random_signal(4 * N, 823u);
  std::vector<c32> v(4 * N);
  conv.forward(u, v);

  fft::PlanDesc d;
  d.n = N;
  const fft::FftPlan plan(d);
  for (std::size_t c = 0; c < 4; ++c) {
    std::vector<c32> freq(N);
    plan.execute(std::span<const c32>(v.data() + c * N, N), freq, 1);
    double high = 0.0;
    double low = 0.0;
    for (std::size_t f = 0; f < N; ++f) {
      (f < M ? low : high) += norm2(freq[f]);
    }
    EXPECT_LT(high, 1e-6 * (low + 1e-9)) << "channel " << c;
  }
}

TEST(SpectralConv1dTest, PerModeWithEqualWeightsMatchesShared) {
  const std::size_t B = 2;
  const std::size_t K = 8;
  const std::size_t O = 8;
  const std::size_t N = 32;
  const std::size_t M = 8;
  SpectralConv1d shared(B, K, O, N, M, Backend::FftOpt, WeightScheme::Shared, 5u);
  SpectralConv1d permode(B, K, O, N, M, Backend::FftOpt, WeightScheme::PerMode, 5u);
  // Copy the shared matrix into every mode slot.
  auto w = shared.weights();
  auto wp = permode.weights();
  ASSERT_EQ(wp.size(), M * w.size());
  for (std::size_t f = 0; f < M; ++f) {
    std::copy(w.begin(), w.end(), wp.begin() + f * w.size());
  }
  const auto u = random_signal(B * K * N, 827u);
  std::vector<c32> vs(B * O * N);
  std::vector<c32> vp(B * O * N);
  shared.forward(u, vs);
  permode.forward(u, vp);
  EXPECT_LT(rel_err(vp, vs), 1e-4);
}

TEST(SpectralConv1dTest, PerModeUsesDistinctMatricesPerFrequency) {
  // Zeroing all but mode f=1's matrix must kill every other frequency.
  const std::size_t K = 4;
  const std::size_t N = 32;
  const std::size_t M = 4;
  SpectralConv1d conv(1, K, K, N, M, Backend::FftOpt, WeightScheme::PerMode, 11u);
  auto w = conv.weights();
  for (std::size_t f = 0; f < M; ++f) {
    if (f == 1) continue;
    std::fill(w.begin() + f * K * K, w.begin() + (f + 1) * K * K, c32{});
  }
  const auto u = random_signal(K * N, 829u);
  std::vector<c32> v(K * N);
  conv.forward(u, v);

  fft::PlanDesc d;
  d.n = N;
  const fft::FftPlan plan(d);
  std::vector<c32> freq(N);
  plan.execute(std::span<const c32>(v.data(), N), freq, 1);
  for (std::size_t f = 0; f < N; ++f) {
    if (f == 1) continue;
    EXPECT_LT(norm2(freq[f]), 1e-6f) << "frequency " << f << " should be annihilated";
  }
}

TEST(SpectralConv2dTest, PerModeSchemeIsRejected) {
  EXPECT_THROW(SpectralConv2d(1, 4, 4, 16, 16, 4, 4, Backend::FftOpt, WeightScheme::PerMode),
               std::invalid_argument);
}

TEST(InitWeights, GlorotBoundRespected) {
  std::vector<c32> w(1000);
  init_weights(w, 64, 64, 3u);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (const auto& x : w) {
    EXPECT_LE(std::fabs(x.re), bound);
    EXPECT_LE(std::fabs(x.im), bound);
  }
  // And not degenerate.
  double sum = 0.0;
  for (const auto& x : w) sum += std::fabs(x.re);
  EXPECT_GT(sum / w.size(), bound * 0.1);
}

}  // namespace
}  // namespace turbofno::core
