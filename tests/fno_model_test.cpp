// Full FNO model: shape handling, determinism, backend equivalence at the
// model level, and numeric health on realistic workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/fno.hpp"
#include "core/workload.hpp"
#include "gemm/batched.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::same_bits;

Fno1dConfig small_1d_cfg(Backend backend) {
  Fno1dConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 16;
  cfg.out_channels = 1;
  cfg.n = 64;
  cfg.modes = 16;
  cfg.layers = 3;
  cfg.backend = backend;
  return cfg;
}

TEST(Fno1dModel, ForwardProducesFiniteOutput) {
  const std::size_t batch = 3;
  const auto cfg = small_1d_cfg(Backend::FullyFused);
  Fno1d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 42u);
  std::vector<c32> v(batch * cfg.out_channels * cfg.n, c32{});
  model.forward(u, v);
  double energy = 0.0;
  for (const auto& x : v) {
    ASSERT_TRUE(std::isfinite(x.re) && std::isfinite(x.im));
    energy += norm2(x);
  }
  EXPECT_GT(energy, 0.0) << "model must not be identically zero";
}

TEST(Fno1dModel, DeterministicAcrossRuns) {
  const std::size_t batch = 2;
  const auto cfg = small_1d_cfg(Backend::FullyFused);
  Fno1d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 7u);
  std::vector<c32> v1(batch * cfg.out_channels * cfg.n);
  std::vector<c32> v2(batch * cfg.out_channels * cfg.n);
  model.forward(u, v1);
  model.forward(u, v2);
  EXPECT_EQ(max_err(v1, v2), 0.0);
}

TEST(Fno1dModel, AllBackendsAgreeEndToEnd) {
  const std::size_t batch = 2;
  std::vector<c32> u(batch * 2 * 64);
  burgers_batch(u, batch, 2, 64, 11u);
  std::vector<std::vector<c32>> outs;
  for (const auto backend :
       {Backend::PyTorch, Backend::FftOpt, Backend::FusedFftGemm, Backend::FusedGemmIfft,
        Backend::FullyFused}) {
    Fno1d model(small_1d_cfg(backend));
    model.reserve(batch);
    std::vector<c32> v(batch * 1 * 64, c32{});
    model.forward(u, v);
    outs.push_back(std::move(v));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LT(rel_err(outs[i], outs[0]), 5e-4) << "backend " << i;
  }
}

TEST(Fno1dModel, SingleLayerNoActivationIsLinearOperator) {
  Fno1dConfig cfg = small_1d_cfg(Backend::FullyFused);
  cfg.layers = 1;  // single layer => final layer => no activation
  Fno1d model(cfg);
  const auto u1 = random_signal(cfg.in_channels * cfg.n, 909u);
  const auto u2 = random_signal(cfg.in_channels * cfg.n, 911u);
  std::vector<c32> mix(u1.size());
  for (std::size_t i = 0; i < mix.size(); ++i) mix[i] = u1[i] + u2[i];
  std::vector<c32> v1(cfg.n);
  std::vector<c32> v2(cfg.n);
  std::vector<c32> vm(cfg.n);
  model.forward(u1, v1);
  model.forward(u2, v2);
  model.forward(mix, vm);
  std::vector<c32> expect(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) expect[i] = v1[i] + v2[i];
  EXPECT_LT(rel_err(vm, expect), 1e-3);
}

TEST(Fno2dModel, ForwardProducesFiniteOutput) {
  Fno2dConfig cfg;
  cfg.in_channels = 1;
  cfg.hidden = 8;
  cfg.out_channels = 1;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 4;
  cfg.modes_y = 4;
  cfg.layers = 2;
  cfg.backend = Backend::FullyFused;
  const std::size_t batch = 2;
  Fno2d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.nx * cfg.ny);
  darcy_batch(u, batch, cfg.in_channels, cfg.nx, cfg.ny, 5u);
  std::vector<c32> v(batch * cfg.out_channels * cfg.nx * cfg.ny, c32{});
  model.forward(u, v);
  for (const auto& x : v) ASSERT_TRUE(std::isfinite(x.re) && std::isfinite(x.im));
}

TEST(Fno2dModel, BackendsAgreeEndToEnd) {
  Fno2dConfig cfg;
  cfg.hidden = 8;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 4;
  cfg.modes_y = 4;
  cfg.layers = 2;
  const std::size_t batch = 1;
  std::vector<c32> u(batch * cfg.in_channels * cfg.nx * cfg.ny);
  vorticity_field(u, cfg.nx, cfg.ny, 17u);

  std::vector<std::vector<c32>> outs;
  for (const auto backend : {Backend::PyTorch, Backend::FullyFused}) {
    cfg.backend = backend;
    Fno2d model(cfg);
    model.reserve(batch);
    std::vector<c32> v(batch * cfg.out_channels * cfg.nx * cfg.ny, c32{});
    model.forward(u, v);
    outs.push_back(std::move(v));
  }
  EXPECT_LT(rel_err(outs[1], outs[0]), 5e-4);
}

/// A forward streams its batch through the model chunk_items() fields at a
/// time.  At 1 and 4 threads, batches of c + 1 and 3c - 1 (a remainder
/// chunk each) must match batch-1 forwards bit for bit on both lanes; after
/// reserve(batch) a repeated forward allocates no scratch, and capacity()
/// reports the batch, not the chunk.
template <class Config>
void expect_chunked_forward_bitwise(const Config& cfg, std::size_t spatial) {
  const std::size_t in = cfg.in_channels * spatial;
  const std::size_t out = cfg.out_channels * spatial;
  const int saved = runtime::thread_count();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    Fno<Config> model(cfg);
    Fno<Config> single(cfg);
    const std::size_t c = model.chunk_items();
    for (const std::size_t batch : {c + 1, 3 * c - 1}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads << ", chunk " << c
                                        << ", batch " << batch);
      model.reserve(batch);
      EXPECT_EQ(model.capacity(), batch);

      const auto u = random_signal(batch * in, 500u + static_cast<unsigned>(batch));
      std::vector<c32> v(batch * out);
      std::vector<c32> want(batch * out);
      model.forward(u, v, batch);
      const std::size_t arena = runtime::tls_scratch().bytes_reserved();
      model.forward(u, v, batch);
      EXPECT_EQ(runtime::tls_scratch().bytes_reserved(), arena);
      for (std::size_t b = 0; b < batch; ++b) {
        single.forward(std::span<const c32>(u).subspan(b * in, in),
                       std::span<c32>(want).subspan(b * out, out), 1);
      }
      EXPECT_TRUE(same_bits(v, want)) << "complex lane";

      const auto ur = turbofno::testing::random_reals(batch * in, 600u + static_cast<unsigned>(batch));
      std::vector<float> vr(batch * out);
      std::vector<float> want_r(batch * out);
      model.forward_real(ur, vr, batch);
      const std::size_t arena_r = runtime::tls_scratch().bytes_reserved();
      model.forward_real(ur, vr, batch);
      EXPECT_EQ(runtime::tls_scratch().bytes_reserved(), arena_r);
      for (std::size_t b = 0; b < batch; ++b) {
        single.forward_real(std::span<const float>(ur).subspan(b * in, in),
                            std::span<float>(want_r).subspan(b * out, out), 1);
      }
      EXPECT_TRUE(same_bits(vr, want_r)) << "real lane";
    }
  }
  runtime::set_thread_count(saved);
}

TEST(FnoChunkedForward, Fno1dMatchesBatchOneForwardsBitwise) {
  // 512 KiB of hidden state per item: two items per thread in a chunk.
  Fno1dConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 64;
  cfg.out_channels = 2;
  cfg.n = 512;
  cfg.modes = 32;
  cfg.layers = 2;
  expect_chunked_forward_bitwise(cfg, cfg.n);
}

TEST(FnoChunkedForward, Fno2dMatchesBatchOneForwardsBitwise) {
  Fno2dConfig cfg;
  cfg.in_channels = 1;
  cfg.hidden = 8;
  cfg.out_channels = 2;
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.modes_x = 8;
  cfg.modes_y = 8;
  cfg.layers = 2;
  expect_chunked_forward_bitwise(cfg, cfg.nx * cfg.ny);
}

TEST(FnoChunkedForward, Fno2dLayerForwardsStopGrowingTheArena) {
  // A 2D ladder layer runs its lift, residual and projection on slabs in
  // the X-stage tasks' scratch arenas: after one forward, a repeated
  // forward grows no arena, with or without a hidden field between layers.
  const int saved = runtime::thread_count();
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    for (const std::size_t layers : {std::size_t{1}, std::size_t{3}}) {
      for (const Backend row : {Backend::PyTorch, Backend::FftOpt, Backend::FullyFused}) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads << ", layers " << layers
                                          << ", row " << static_cast<int>(row));
        Fno2dConfig cfg;
        cfg.in_channels = 1;
        cfg.hidden = 24;
        cfg.out_channels = 2;
        cfg.nx = 32;
        cfg.ny = 32;
        cfg.modes_x = 8;
        cfg.modes_y = 8;
        cfg.layers = layers;
        cfg.backend = row;
        Fno2d model(cfg);
        const std::size_t batch = 3;
        const std::size_t spatial = cfg.nx * cfg.ny;
        const auto u = random_signal(batch * spatial, 610u);
        std::vector<c32> v(batch * cfg.out_channels * spatial);
        model.forward(u, v, batch);
        const std::size_t arena = runtime::tls_scratch().bytes_reserved();
        model.forward(u, v, batch);
        EXPECT_EQ(runtime::tls_scratch().bytes_reserved(), arena) << "complex lane";

        const auto ur = turbofno::testing::random_reals(batch * spatial, 611u);
        std::vector<float> vr(batch * cfg.out_channels * spatial);
        model.forward_real(ur, vr, batch);
        const std::size_t arena_r = runtime::tls_scratch().bytes_reserved();
        model.forward_real(ur, vr, batch);
        EXPECT_EQ(runtime::tls_scratch().bytes_reserved(), arena_r) << "real lane";
      }
    }
  }
  runtime::set_thread_count(saved);
}

TEST(PointwiseLinearTest, MatchesNaiveMixing) {
  const std::size_t in = 3;
  const std::size_t out = 4;
  const std::size_t batch = 2;
  const std::size_t spatial = 10;
  PointwiseLinear lin(in, out, 21u);
  const auto u = random_signal(batch * in * spatial, 919u);
  std::vector<c32> v(batch * out * spatial, c32{});
  lin.forward(u, v, batch, spatial);

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t s = 0; s < spatial; ++s) {
        c32 acc{};
        for (std::size_t k = 0; k < in; ++k) {
          cmadd(acc, lin.weights()[o * in + k], u[(b * in + k) * spatial + s]);
        }
        EXPECT_NEAR(v[(b * out + o) * spatial + s].re, acc.re, 1e-4);
        EXPECT_NEAR(v[(b * out + o) * spatial + s].im, acc.im, 1e-4);
      }
    }
  }
}

// ------------------------------------------------ PointwiseLinear vs double

using cd = std::complex<double>;

cd to_cd(float x) { return {x, 0.0}; }
cd to_cd(c32 x) { return {x.re, x.im}; }

struct MixShape {
  std::size_t in, out, batch, spatial;
};

/// v0 + W u per item, every sum in double (v0 empty: no accumulation).  The
/// real lane is the same sum over real parts of the weights.
template <class T>
std::vector<cd> reference_mix(const MixShape& m, std::span<const c32> w, std::span<const T> u,
                              std::span<const T> v0) {
  std::vector<cd> ref(m.batch * m.out * m.spatial);
  for (std::size_t b = 0; b < m.batch; ++b) {
    for (std::size_t o = 0; o < m.out; ++o) {
      for (std::size_t s = 0; s < m.spatial; ++s) {
        const std::size_t vi = (b * m.out + o) * m.spatial + s;
        cd acc = 0.0;
        if (!v0.empty()) acc = to_cd(v0[vi]);
        for (std::size_t k = 0; k < m.in; ++k) {
          const c32 wk = w[o * m.in + k];
          const cd wd = std::is_same_v<T, float> ? cd(wk.re, 0.0) : to_cd(wk);
          acc += wd * to_cd(u[(b * m.in + k) * m.spatial + s]);
        }
        ref[vi] = acc;
      }
    }
  }
  return ref;
}

/// max |got - ref| / max |ref| over every component.
template <class T>
double mix_err(std::span<const T> got, const std::vector<cd>& ref) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num = std::max(num, std::abs(to_cd(got[i]) - ref[i]));
    den = std::max(den, std::abs(ref[i]));
  }
  return num / den;
}

std::vector<float> random_real(std::size_t n, unsigned seed) {
  const auto c = random_signal((n + 1) / 2, seed);
  std::vector<float> r(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = i % 2 == 0 ? c[i / 2].re : c[i / 2].im;
  return r;
}

void check_complex_mix(const MixShape& m, bool accumulate) {
  SCOPED_TRACE(::testing::Message() << "in=" << m.in << " out=" << m.out << " spatial="
                                    << m.spatial << " accumulate=" << accumulate);
  const PointwiseLinear lin(m.in, m.out, 23u);
  const auto u = random_signal(m.batch * m.in * m.spatial, 301u);
  auto v = accumulate ? random_signal(m.batch * m.out * m.spatial, 302u)
                      : std::vector<c32>(m.batch * m.out * m.spatial, c32{9.0f, 9.0f});
  const auto ref = reference_mix<c32>(m, lin.weights(), u,
                                      accumulate ? std::span<const c32>(v) : std::span<const c32>());
  lin.forward(u, v, m.batch, m.spatial, accumulate);
  EXPECT_LT(mix_err<c32>(v, ref), 2e-6 * std::sqrt(static_cast<double>(m.in)));
}

void check_real_mix(const MixShape& m, bool accumulate) {
  SCOPED_TRACE(::testing::Message() << "real in=" << m.in << " out=" << m.out
                                    << " spatial=" << m.spatial << " accumulate=" << accumulate);
  const PointwiseLinear lin(m.in, m.out, 29u);
  const auto u = random_real(m.batch * m.in * m.spatial, 303u);
  auto v = accumulate ? random_real(m.batch * m.out * m.spatial, 304u)
                      : std::vector<float>(m.batch * m.out * m.spatial, 9.0f);
  const auto ref = reference_mix<float>(
      m, lin.weights(), u, accumulate ? std::span<const float>(v) : std::span<const float>());
  lin.forward_real(u, v, m.batch, m.spatial, accumulate);
  EXPECT_LT(mix_err<float>(v, ref), 2e-6 * std::sqrt(static_cast<double>(m.in)));
}

TEST(PointwiseLinearTest, GemmShapesMatchDoubleReference) {
  // K = O = 40 at an odd spatial size ends every row in a masked tail.
  for (const bool acc : {false, true}) {
    check_complex_mix({40, 40, 3, 37}, acc);
    check_complex_mix({128, 128, 2, 64}, acc);
  }
}

TEST(PointwiseLinearTest, LiftAndProjectionShapesMatchDoubleReference) {
  for (const bool acc : {false, true}) {
    check_complex_mix({1, 40, 2, 37}, acc);
    check_complex_mix({40, 1, 2, 37}, acc);
  }
}

TEST(PointwiseLinearTest, RealLaneMatchesDoubleReference) {
  for (const bool acc : {false, true}) {
    check_real_mix({40, 40, 3, 64}, acc);  // even spatial: GEMM on the pair view
    check_real_mix({40, 40, 3, 63}, acc);  // odd spatial: loop
    check_real_mix({1, 40, 2, 64}, acc);
    check_real_mix({40, 1, 2, 64}, acc);
  }
}

// The fig19 residual: 40 -> 40 channels on a 256 x 128 grid, batch 4.
constexpr MixShape kFig19Residual{40, 40, 4, 256 * 128};

/// The real lane's GEMM before it took a real A operand: the complex GEMM
/// over the pair view with a {w.re, 0} weight copy.
void pair_view_reference(const MixShape& m, std::span<const c32> w, std::span<const float> u,
                         std::span<float> v, bool accumulate) {
  std::vector<c32> wr(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) wr[i] = c32{w[i].re, 0.0f};
  const std::size_t cols = m.spatial / 2;
  const gemm::BatchedStrides strides{0, static_cast<std::ptrdiff_t>(m.in * cols),
                                     static_cast<std::ptrdiff_t>(m.out * cols)};
  gemm::cgemm_batched(m.out, cols, m.in, c32{1.0f, 0.0f}, wr.data(), m.in,
                      reinterpret_cast<const c32*>(u.data()), cols,
                      c32{accumulate ? 1.0f : 0.0f, 0.0f}, reinterpret_cast<c32*>(v.data()), cols,
                      m.batch, strides);
}

TEST(PointwiseLinearTest, RealLaneBitwiseEqualsPairViewComplexGemm) {
  const MixShape m = kFig19Residual;
  const PointwiseLinear lin(m.in, m.out, 37u);
  const auto u = random_real(m.batch * m.in * m.spatial, 307u);
  for (const bool accumulate : {false, true}) {
    const auto v0 = random_real(m.batch * m.out * m.spatial, 308u);
    std::vector<float> got(v0);
    std::vector<float> want(v0);
    lin.forward_real(u, got, m.batch, m.spatial, accumulate);
    pair_view_reference(m, lin.weights(), u, want, accumulate);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << "accumulate=" << accumulate;
  }
}

TEST(PointwiseLinearTest, RealLaneGemmErrorAtFig19Residual) {
  // The real-weight GEMM's error against a double-precision mix, recorded
  // (RecordProperty, so --gtest_output=json carries it) and bounded.
  const MixShape m = kFig19Residual;
  const PointwiseLinear lin(m.in, m.out, 41u);
  const auto u = random_real(m.batch * m.in * m.spatial, 309u);
  std::vector<float> v(m.batch * m.out * m.spatial);
  lin.forward_real(u, v, m.batch, m.spatial);
  const auto ref = reference_mix<float>(m, lin.weights(), u, {});
  double err2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err2 += std::norm(to_cd(v[i]) - ref[i]);
    ref2 += std::norm(ref[i]);
  }
  const double rel_l2 = std::sqrt(err2 / ref2);
  const double max_rel = mix_err<float>(v, ref);
  RecordProperty("real_gemm_rel_l2", ::testing::PrintToString(rel_l2));
  RecordProperty("real_gemm_max_rel", ::testing::PrintToString(max_rel));
  EXPECT_LT(rel_l2, 1e-6);
}

/// Runs `mix(u, v, batch)` over a batch of 4 and item by item, at 1 and 4
/// threads; every item must be bitwise identical across all four runs.
template <class T, class Mix>
void expect_per_item_bitwise(std::size_t in, std::size_t out, std::size_t spatial,
                             const std::vector<T>& u, Mix mix) {
  const std::size_t batch = 4;
  const int saved = runtime::thread_count();
  std::vector<std::vector<T>> runs;
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    std::vector<T> whole(batch * out * spatial);
    mix(std::span<const T>(u), std::span<T>(whole), batch);
    runs.push_back(std::move(whole));
    std::vector<T> items(batch * out * spatial);
    for (std::size_t b = 0; b < batch; ++b) {
      mix(std::span<const T>(u).subspan(b * in * spatial, in * spatial),
          std::span<T>(items).subspan(b * out * spatial, out * spatial), 1);
    }
    runs.push_back(std::move(items));
  }
  runtime::set_thread_count(saved);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(std::memcmp(runs[r].data(), runs[0].data(), runs[0].size() * sizeof(T)), 0)
        << "run " << r << " differs bitwise from the batch-4, 1-thread run";
  }
}

TEST(PointwiseLinearTest, PerItemBitwiseAcrossBatchAndThreads) {
  const std::size_t in = 40, out = 40, spatial = 70;
  const PointwiseLinear lin(in, out, 31u);
  expect_per_item_bitwise<c32>(in, out, spatial, random_signal(4 * in * spatial, 305u),
                               [&](std::span<const c32> u, std::span<c32> v, std::size_t b) {
                                 lin.forward(u, v, b, spatial);
                               });
  expect_per_item_bitwise<float>(in, out, spatial, random_real(4 * in * spatial, 306u),
                                 [&](std::span<const float> u, std::span<float> v,
                                     std::size_t b) { lin.forward_real(u, v, b, spatial); });
}

TEST(ReluTest, ClampsBothComponents) {
  std::vector<c32> x = {{-1.0f, 2.0f}, {3.0f, -4.0f}, {-5.0f, -6.0f}, {7.0f, 8.0f}};
  relu_inplace(x);
  EXPECT_EQ(x[0].re, 0.0f);
  EXPECT_EQ(x[0].im, 2.0f);
  EXPECT_EQ(x[1].re, 3.0f);
  EXPECT_EQ(x[1].im, 0.0f);
  EXPECT_EQ(x[2].re, 0.0f);
  EXPECT_EQ(x[2].im, 0.0f);
  EXPECT_EQ(x[3].re, 7.0f);
  EXPECT_EQ(x[3].im, 8.0f);
}

}  // namespace
}  // namespace turbofno::core
