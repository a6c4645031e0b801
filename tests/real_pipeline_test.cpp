// Real-spectral (RFFT) lane: every 1D/2D ladder variant's run_batched_real
// must match a direct double-precision half-spectrum reference, the knob-off
// C2C emulation must agree with the knob-on RFFT schedule at the layer and
// model level, and the steady state must stay allocation-free.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/api.hpp"
#include "fft/real.hpp"
#include "fft/reference.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline2d.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using baseline::Spectral2dProblem;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;

std::vector<c32> pack(std::span<const float> x) {
  std::vector<c32> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = {x[i], 0.0f};
  return z;
}

/// torch.fft.irfft bin completion: first `stored` bins -> full n-bin
/// conjugate-symmetric spectrum (DC, and Nyquist when stored, projected
/// real).
std::vector<c32> hermitian_full(std::span<const c32> bins, std::size_t n) {
  std::vector<c32> full(n, c32{});
  full[0] = {bins[0].re, 0.0f};
  for (std::size_t k = 1; k < bins.size(); ++k) {
    if (k == n - k) {
      full[k] = {bins[k].re, 0.0f};
    } else {
      full[k] = bins[k];
      full[n - k] = {bins[k].re, -bins[k].im};
    }
  }
  return full;
}

// Direct reference of the 1D real lane: full DFT of the real signal, keep
// modes/2+1 bins, mix along hidden, Hermitian-complete, inverse DFT, real
// part.
std::vector<float> reference_real_conv_1d(const Spectral1dProblem& p,
                                          const std::vector<float>& u,
                                          const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t N = p.n;
  const std::size_t MR = p.modes / 2 + 1;
  const auto uc = pack(u);
  std::vector<c32> freq(B * K * MR);
  for (std::size_t bk = 0; bk < B * K; ++bk) {
    fft::reference_dft(std::span<const c32>(uc.data() + bk * N, N),
                       std::span<c32>(freq.data() + bk * MR, MR), N);
  }
  std::vector<c32> mixed(B * O * MR, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t f = 0; f < MR; ++f) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * MR + f]);
        }
        mixed[(b * O + o) * MR + f] = acc;
      }
    }
  }
  std::vector<float> v(B * O * N);
  for (std::size_t bo = 0; bo < B * O; ++bo) {
    const auto full =
        hermitian_full(std::span<const c32>(mixed.data() + bo * MR, MR), N);
    std::vector<c32> time(N);
    fft::reference_idft(full, time, N);
    for (std::size_t j = 0; j < N; ++j) v[bo * N + j] = time[j].re;
  }
  return v;
}

// Direct reference of the 2D real lane: truncated X DFT per column
// (modes_x/2+1 bins), truncated Y DFT per row, mix, padded Y inverse,
// Hermitian X inverse per column.
std::vector<float> reference_real_conv_2d(const Spectral2dProblem& p,
                                          const std::vector<float>& u,
                                          const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t NX = p.nx;
  const std::size_t NY = p.ny;
  const std::size_t MY = p.modes_y;
  const std::size_t MXR = p.modes_x / 2 + 1;
  std::vector<c32> xf(B * K * MXR * NY);
  for (std::size_t f = 0; f < B * K; ++f) {
    for (std::size_t y = 0; y < NY; ++y) {
      std::vector<c32> col(NX);
      for (std::size_t x = 0; x < NX; ++x) col[x] = {u[(f * NX + x) * NY + y], 0.0f};
      std::vector<c32> bins(MXR);
      fft::reference_dft(col, bins, NX);
      for (std::size_t k = 0; k < MXR; ++k) xf[(f * MXR + k) * NY + y] = bins[k];
    }
  }
  std::vector<c32> freq(B * K * MXR * MY);
  for (std::size_t r = 0; r < B * K * MXR; ++r) {
    fft::reference_dft(std::span<const c32>(xf.data() + r * NY, NY),
                       std::span<c32>(freq.data() + r * MY, MY), NY);
  }
  const std::size_t modes = MXR * MY;
  std::vector<c32> mixed(B * O * modes, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t f = 0; f < modes; ++f) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * modes + f]);
        }
        mixed[(b * O + o) * modes + f] = acc;
      }
    }
  }
  std::vector<c32> xi(B * O * MXR * NY);
  for (std::size_t r = 0; r < B * O * MXR; ++r) {
    fft::reference_idft(std::span<const c32>(mixed.data() + r * MY, MY),
                        std::span<c32>(xi.data() + r * NY, NY), NY);
  }
  std::vector<float> v(B * O * NX * NY);
  for (std::size_t f = 0; f < B * O; ++f) {
    for (std::size_t y = 0; y < NY; ++y) {
      std::vector<c32> bins(MXR);
      for (std::size_t k = 0; k < MXR; ++k) bins[k] = xi[(f * MXR + k) * NY + y];
      const auto full = hermitian_full(bins, NX);
      std::vector<c32> col(NX);
      fft::reference_idft(full, col, NX);
      for (std::size_t x = 0; x < NX; ++x) v[(f * NX + x) * NY + y] = col[x].re;
    }
  }
  return v;
}

// --------------------------------------------------------------- 1D ladder

struct RealCase1d {
  Variant variant;
  Spectral1dProblem prob;
};

std::vector<RealCase1d> real_cases_1d() {
  const std::vector<Spectral1dProblem> probs = {
      {2, 8, 8, 32, 8},
      {1, 8, 24, 64, 32},
      {2, 9, 7, 64, 16},   // hidden not a multiple of k_tb
      {1, 8, 8, 64, 64},   // no truncation (modes == n)
      {2, 8, 8, 64, 1},    // extreme truncation (one retained bin)
  };
  std::vector<RealCase1d> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

class RealLadder1d : public ::testing::TestWithParam<RealCase1d> {};

TEST_P(RealLadder1d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_reals(prob.batch * prob.hidden * prob.n,
                              501u + static_cast<unsigned>(prob.n));
  const auto w = random_signal(prob.hidden * prob.out_dim, 509u);
  std::vector<float> v(prob.batch * prob.out_dim * prob.n, 0.0f);
  auto pipe = make_pipeline1d(variant, prob, /*real_input=*/true);
  pipe->run_batched_real(u, w, v, prob.batch);
  const auto ref = reference_real_conv_1d(prob, u, w);
  EXPECT_LT(rel_err(v, ref), 1e-4) << pipe->name();
}

TEST_P(RealLadder1d, SecondRunIsIdenticalAndAllocationFree) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_reals(prob.batch * prob.hidden * prob.n, 521u);
  const auto w = random_signal(prob.hidden * prob.out_dim, 523u);
  std::vector<float> v1(prob.batch * prob.out_dim * prob.n, 0.0f);
  std::vector<float> v2(v1.size(), 0.0f);
  auto pipe = make_pipeline1d(variant, prob, true);
  pipe->run_batched_real(u, w, v1, prob.batch);
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  pipe->run_batched_real(u, w, v2, prob.batch);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_EQ(v1[i], v2[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Ladder, RealLadder1d, ::testing::ValuesIn(real_cases_1d()));

// --------------------------------------------------------------- 2D ladder

struct RealCase2d {
  Variant variant;
  Spectral2dProblem prob;
};

std::vector<RealCase2d> real_cases_2d() {
  const std::vector<Spectral2dProblem> probs = {
      {2, 6, 6, 16, 16, 6, 6},
      {1, 8, 4, 32, 16, 12, 8},
      {2, 5, 7, 16, 32, 16, 12},  // modes_x == nx (no X truncation)
  };
  std::vector<RealCase2d> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

class RealLadder2d : public ::testing::TestWithParam<RealCase2d> {};

TEST_P(RealLadder2d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  set_fused_mid_group(2);  // exercise group chunking, not just whole-batch
  const auto u = random_reals(prob.batch * prob.hidden * prob.nx * prob.ny,
                              601u + static_cast<unsigned>(prob.nx));
  const auto w = random_signal(prob.hidden * prob.out_dim, 607u);
  std::vector<float> v(prob.batch * prob.out_dim * prob.nx * prob.ny, 0.0f);
  auto pipe = make_pipeline2d(variant, prob, /*real_input=*/true);
  pipe->run_batched_real(u, w, v, prob.batch);
  set_fused_mid_group(0);
  const auto ref = reference_real_conv_2d(prob, u, w);
  EXPECT_LT(rel_err(v, ref), 1e-4) << pipe->name();
}

INSTANTIATE_TEST_SUITE_P(Ladder, RealLadder2d, ::testing::ValuesIn(real_cases_2d()));

// ------------------------------------------------- layer + model level A/B

class RealSpectralKnob : public ::testing::Test {
 protected:
  void TearDown() override { fft::set_real_spectral(true); }
};

TEST_F(RealSpectralKnob, Conv1dKnobOffMatchesKnobOn) {
  core::SpectralConv1d conv(2, 8, 8, 64, 16, core::Backend::FullyFused);
  const auto u = random_reals(2 * 8 * 64, 701u);
  std::vector<float> on(2 * 8 * 64, 0.0f);
  std::vector<float> off(on.size(), 0.0f);
  fft::set_real_spectral(true);
  conv.forward_real(u, on, 2);
  fft::set_real_spectral(false);
  conv.forward_real(u, off, 2);
  EXPECT_LT(rel_err(on, off), 1e-4);
}

TEST_F(RealSpectralKnob, Conv2dKnobOffMatchesKnobOn) {
  core::SpectralConv2d conv(2, 6, 6, 16, 16, 8, 8, core::Backend::FullyFused);
  const auto u = random_reals(2 * 6 * 16 * 16, 709u);
  std::vector<float> on(u.size(), 0.0f);
  std::vector<float> off(u.size(), 0.0f);
  fft::set_real_spectral(true);
  conv.forward_real(u, on, 2);
  fft::set_real_spectral(false);
  conv.forward_real(u, off, 2);
  EXPECT_LT(rel_err(on, off), 1e-4);
}

TEST_F(RealSpectralKnob, Conv1dPerModeRealRuns) {
  core::SpectralConv1d conv(1, 6, 6, 32, 8, core::Backend::FftOpt,
                            core::WeightScheme::PerMode);
  const auto u = random_reals(6 * 32, 719u);
  std::vector<float> v(6 * 32, 0.0f);
  conv.forward_real(u, v, 1);
  double mag = 0.0;
  for (const float x : v) mag += std::fabs(x);
  EXPECT_GT(mag, 0.0);
}

TEST_F(RealSpectralKnob, Fno1dModelAgreesAcrossKnob) {
  core::Fno1dConfig cfg;
  cfg.hidden = 8;
  cfg.n = 64;
  cfg.modes = 16;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  core::Fno1d model(cfg);
  const auto u = random_reals(cfg.in_channels * cfg.n, 727u);
  std::vector<float> on(cfg.out_channels * cfg.n, 0.0f);
  std::vector<float> off(on.size(), 0.0f);
  fft::set_real_spectral(true);
  model.forward_real(u, on, 1);
  fft::set_real_spectral(false);
  model.forward_real(u, off, 1);
  EXPECT_LT(rel_err(on, off), 1e-3);
}

TEST_F(RealSpectralKnob, SessionRunRealServes2d) {
  core::Engine engine;
  core::Fno2dConfig cfg;
  cfg.hidden = 6;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 8;
  cfg.modes_y = 8;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  const auto m = engine.register_model(cfg);
  auto session = engine.create_session(m, 2);
  const std::size_t in = cfg.in_channels * cfg.nx * cfg.ny;
  const std::size_t out = cfg.out_channels * cfg.nx * cfg.ny;
  const auto u = random_reals(2 * in, 733u);
  std::vector<float> v(2 * out, 0.0f);
  session.run_real(u, v, 2);
  // Batch results must equal two singles (no cross-request coupling).
  std::vector<float> one(out, 0.0f);
  session.run_real(std::span<const float>(u.data(), in), one, 1);
  for (std::size_t i = 0; i < out; ++i) EXPECT_EQ(v[i], one[i]) << i;
}

}  // namespace
}  // namespace turbofno::fused
