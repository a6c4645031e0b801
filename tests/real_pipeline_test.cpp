// Real-spectral (RFFT) lane: every 1D/2D ladder variant's run_batched_real,
// SpectralConv1d/2d::forward_real (shared and per-mode weights) and
// Fno1d/2d::forward_real must match direct double-precision half-spectrum
// DFT references, and the steady state must stay allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "core/api.hpp"
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

/// torch.fft.irfft: complete the first `stored` bins to the full n-bin
/// conjugate-symmetric spectrum (DC, and Nyquist when stored, projected
/// real) and inverse-DFT it.  The completed spectrum's inverse must come
/// out real; a nonzero imaginary residue means the completion is wrong.
std::vector<float> hermitian_inverse(std::span<const c32> bins, std::size_t n) {
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
  std::vector<c32> time(n);
  fft::reference_idft(full, time, n);
  std::vector<float> re(n);
  double re_mag = 0.0;
  double im_mag = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    re[j] = time[j].re;
    re_mag += std::fabs(time[j].re);
    im_mag += std::fabs(time[j].im);
  }
  EXPECT_LE(im_mag, 1e-5 * re_mag + 1e-30) << "Hermitian completion left an imaginary part";
  return re;
}

// Direct reference of the 1D real lane: full DFT of the real signal, keep
// modes/2+1 bins, mix along hidden, Hermitian-complete, inverse DFT.  Bin f
// mixes with w[f * mode_stride + o * hidden + k]: mode_stride 0 is the
// shared [out, hidden] weight, out * hidden the per-mode [modes, out,
// hidden] one.
std::vector<float> reference_real_conv_1d(const Spectral1dProblem& p, std::span<const float> u,
                                          std::span<const c32> w, std::size_t mode_stride = 0) {
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
          cmadd(acc, w[f * mode_stride + o * K + k], freq[(b * K + k) * MR + f]);
        }
        mixed[(b * O + o) * MR + f] = acc;
      }
    }
  }
  std::vector<float> v(B * O * N);
  for (std::size_t bo = 0; bo < B * O; ++bo) {
    const auto time = hermitian_inverse(std::span<const c32>(mixed.data() + bo * MR, MR), N);
    std::copy(time.begin(), time.end(), v.begin() + static_cast<std::ptrdiff_t>(bo * N));
  }
  return v;
}

// Direct reference of the 2D real lane: truncated X DFT per column
// (modes_x/2+1 bins), truncated Y DFT per row, mix, padded Y inverse,
// Hermitian X inverse per column.
std::vector<float> reference_real_conv_2d(const Spectral2dProblem& p, std::span<const float> u,
                                          std::span<const c32> w) {
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
      const auto col = hermitian_inverse(bins, NX);
      for (std::size_t x = 0; x < NX; ++x) v[(f * NX + x) * NY + y] = col[x];
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

// One pipeline reserved up front, then real -> complex -> real: the lanes
// share the workspaces, so each run must match a fresh single-lane pipeline
// bit for bit, and the second real run must reserve no scratch.
TEST_P(RealLadder2d, InterleavedLanesAfterReserveAreBitwise) {
  const auto& [variant, prob] = GetParam();
  const std::size_t in = prob.batch * prob.hidden * prob.nx * prob.ny;
  const std::size_t out = prob.batch * prob.out_dim * prob.nx * prob.ny;
  const auto ur = random_reals(in, 611u);
  const auto uc = random_signal(in, 613u);
  const auto w = random_signal(prob.hidden * prob.out_dim, 617u);

  std::vector<float> ref_r(out, 0.0f);
  make_pipeline2d(variant, prob)->run_batched_real(ur, w, ref_r, prob.batch);
  std::vector<c32> ref_c(out);
  make_pipeline2d(variant, prob)->run_batched(uc, w, ref_c, prob.batch);

  Spectral2dProblem one = prob;
  one.batch = 1;
  auto pipe = make_pipeline2d(variant, one);
  pipe->reserve(prob.batch);
  std::vector<float> r1(out, 0.0f);
  pipe->run_batched_real(ur, w, r1, prob.batch);
  std::vector<c32> c(out);
  pipe->run_batched(uc, w, c, prob.batch);
  std::vector<float> r2(out, 0.0f);
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  pipe->run_batched_real(ur, w, r2, prob.batch);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved()) << pipe->name();
  EXPECT_TRUE(turbofno::testing::same_bits(r1, ref_r)) << pipe->name();
  EXPECT_TRUE(turbofno::testing::same_bits(c, ref_c)) << pipe->name();
  EXPECT_TRUE(turbofno::testing::same_bits(r2, ref_r)) << pipe->name();
}

INSTANTIATE_TEST_SUITE_P(Ladder, RealLadder2d, ::testing::ValuesIn(real_cases_2d()));

// ------------------------------------------------ layer + model references

const core::Backend kLayerBackends[] = {core::Backend::Auto, core::Backend::PyTorch,
                                        core::Backend::FftOpt, core::Backend::FullyFused};

class RealLayer : public ::testing::TestWithParam<core::Backend> {};

TEST_P(RealLayer, Conv1dMatchesReference) {
  core::SpectralConv1d conv(2, 8, 8, 64, 16, GetParam());
  const auto u = random_reals(2 * 8 * 64, 701u);
  std::vector<float> v(2 * 8 * 64, 0.0f);
  conv.forward_real(u, v, 2);
  const auto ref = reference_real_conv_1d(conv.problem(), u, conv.weights());
  EXPECT_LT(rel_err(v, ref), 1e-4);
}

TEST_P(RealLayer, Conv2dMatchesReference) {
  core::SpectralConv2d conv(2, 6, 6, 16, 16, 8, 8, GetParam());
  const auto u = random_reals(2 * 6 * 16 * 16, 709u);
  std::vector<float> v(u.size(), 0.0f);
  conv.forward_real(u, v, 2);
  const auto ref = reference_real_conv_2d(conv.problem(), u, conv.weights());
  EXPECT_LT(rel_err(v, ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Backends, RealLayer, ::testing::ValuesIn(kLayerBackends),
                         [](const auto& info) {
                           std::string name(variant_name(info.param));
                           for (char& c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return name;
                         });

TEST(RealLayerPerMode, Conv1dMatchesPerModeReference) {
  core::SpectralConv1d conv(1, 6, 6, 32, 8, core::Backend::FftOpt,
                            core::WeightScheme::PerMode);
  const auto u = random_reals(6 * 32, 719u);
  std::vector<float> v(6 * 32, 0.0f);
  conv.forward_real(u, v, 1);
  const auto& p = conv.problem();
  const auto ref = reference_real_conv_1d(p, u, conv.weights(), p.out_dim * p.hidden);
  EXPECT_LT(rel_err(v, ref), 1e-4);
}

/// Fno1d/2d::forward_real composed from the public accessors: the lift, per
/// layer the reference spectral conv plus the residual mix and a ReLU
/// (skipped on the last layer), the projection.  `spatial` is the
/// per-channel field size; `reference_conv(prob, h, w)` is the layer
/// reference.
template <class Model, class Reference>
std::vector<float> reference_real_model(const Model& model, std::span<const float> u,
                                        std::size_t batch, std::size_t spatial,
                                        Reference reference_conv) {
  const auto& cfg = model.config();
  std::vector<float> h(batch * cfg.hidden * spatial, 0.0f);
  model.lift().forward_real(u, h, batch, spatial);
  for (std::size_t l = 0; l < model.spectral_layers().size(); ++l) {
    const auto& conv = model.spectral_layers()[l];
    auto prob = conv.problem();
    prob.batch = batch;
    auto next = reference_conv(prob, h, conv.weights());
    model.residual_layers()[l].forward_real(h, next, batch, spatial, /*accumulate=*/true);
    if (l + 1 < model.spectral_layers().size()) core::relu_inplace(std::span<float>(next));
    h = std::move(next);
  }
  std::vector<float> v(batch * cfg.out_channels * spatial, 0.0f);
  model.projection().forward_real(h, v, batch, spatial);
  return v;
}

TEST(RealModel, Fno1dMatchesComposedReference) {
  core::Fno1dConfig cfg;
  cfg.hidden = 8;
  cfg.n = 64;
  cfg.modes = 16;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  core::Fno1d model(cfg);
  const auto u = random_reals(2 * cfg.in_channels * cfg.n, 727u);
  std::vector<float> v(2 * cfg.out_channels * cfg.n, 0.0f);
  model.forward_real(u, v, 2);
  const auto ref = reference_real_model(
      model, u, 2, cfg.n, [](const Spectral1dProblem& p, std::span<const float> h,
                              std::span<const c32> w) { return reference_real_conv_1d(p, h, w); });
  EXPECT_LT(rel_err(v, ref), 1e-3);
}

TEST(RealModel, Fno2dMatchesComposedReference) {
  core::Fno2dConfig cfg;
  cfg.hidden = 6;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 8;
  cfg.modes_y = 8;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  core::Fno2d model(cfg);
  const std::size_t spatial = cfg.nx * cfg.ny;
  const auto u = random_reals(2 * cfg.in_channels * spatial, 731u);
  std::vector<float> v(2 * cfg.out_channels * spatial, 0.0f);
  model.forward_real(u, v, 2);
  const auto ref = reference_real_model(
      model, u, 2, spatial, [](const Spectral2dProblem& p, std::span<const float> h,
                               std::span<const c32> w) { return reference_real_conv_2d(p, h, w); });
  EXPECT_LT(rel_err(v, ref), 1e-3);
}

TEST(RealModel, SessionRunRealServes2d) {
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
