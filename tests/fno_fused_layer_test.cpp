// The fused 2D FNO layer: an Fno2d forward runs each layer as one pipeline
// call, and the 2D ladder rows run the lift, the residual, the ReLU and
// the projection inside their X stages.  It must compute the bits of the
// unfused composition of the model's own public parts, on every row (the
// PyTorch baseline and Auto included), on both lanes, at 1 and 4 threads;
// and a layer whose weights were rewritten must forward like a layer
// built with those weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/fno.hpp"
#include "core/spectral_conv.hpp"
#include "runtime/parallel.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::same_bits;

constexpr Backend kRows2d[] = {Backend::PyTorch,       Backend::FftOpt,
                               Backend::FusedFftGemm,  Backend::FusedGemmIfft,
                               Backend::FullyFused,    Backend::Auto};

/// lift -> L x [spectral + residual, ReLU but the last] -> projection, one
/// whole-field pass per step through the model's public layers.  T is c32
/// (complex lane) or float (real lane).
template <class T>
std::vector<T> unfused_forward(Fno2d& model, const std::vector<T>& u, std::size_t batch) {
  const Fno2dConfig& cfg = model.config();
  const std::size_t S = cfg.nx * cfg.ny;
  std::vector<T> h(batch * cfg.hidden * S);
  std::vector<T> next(h.size());
  std::vector<T> v(batch * cfg.out_channels * S);
  constexpr bool kReal = std::is_same_v<T, float>;
  if constexpr (kReal) {
    model.lift().forward_real(u, h, batch, S);
  } else {
    model.lift().forward(u, h, batch, S);
  }
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    if constexpr (kReal) {
      model.spectral_layers()[l].forward_real(h, next, batch);
      model.residual_layers()[l].forward_real(h, next, batch, S, /*accumulate=*/true);
    } else {
      model.spectral_layers()[l].forward(h, next, batch);
      model.residual_layers()[l].forward(h, next, batch, S, /*accumulate=*/true);
    }
    if (l + 1 < cfg.layers) relu_inplace(std::span<T>(next));
    std::swap(h, next);
  }
  if constexpr (kReal) {
    model.projection().forward_real(h, v, batch, S);
  } else {
    model.projection().forward(h, v, batch, S);
  }
  return v;
}

struct Case {
  std::size_t layers, in, hidden, out, nx, ny, modes_x, modes_y;
};

// Every value of each axis appears: layers {1, 3}, in_channels {1, 3, 16}
// (16 with hidden >= 16 runs the lift on the GEMM), out_channels {1, 2}
// (plus a GEMM-shaped 24 -> 16 projection), hidden {8, 24, 40}, and ny = 8,
// narrower than one real-lane slab.
constexpr Case kCases[] = {
    {1, 1, 40, 1, 32, 16, 12, 6}, {3, 3, 24, 2, 32, 16, 12, 6}, {1, 16, 24, 2, 16, 8, 8, 4},
    {3, 16, 8, 1, 16, 8, 6, 4},   {3, 1, 40, 2, 16, 8, 8, 4},   {1, 3, 8, 1, 32, 16, 12, 6},
    {1, 1, 24, 16, 16, 32, 8, 10},
};

TEST(FusedLayer2d, MatchesUnfusedCompositionBitwise) {
  const int saved = runtime::thread_count();
  for (const Case& c : kCases) {
    for (const Backend row : kRows2d) {
      Fno2dConfig cfg;
      cfg.in_channels = c.in;
      cfg.hidden = c.hidden;
      cfg.out_channels = c.out;
      cfg.nx = c.nx;
      cfg.ny = c.ny;
      cfg.modes_x = c.modes_x;
      cfg.modes_y = c.modes_y;
      cfg.layers = c.layers;
      cfg.backend = row;
      Fno2d model(cfg);
      const std::size_t S = c.nx * c.ny;
      for (const int threads : {1, 4}) {
        runtime::set_thread_count(threads);
        for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
          SCOPED_TRACE(::testing::Message()
                       << "row " << static_cast<int>(row) << ", layers " << c.layers << ", in "
                       << c.in << ", hidden " << c.hidden << ", out " << c.out << ", "
                       << c.nx << "x" << c.ny << ", threads " << threads << ", batch "
                       << batch);
          const auto u = random_signal(batch * c.in * S, 71u + static_cast<unsigned>(batch));
          std::vector<c32> v(batch * c.out * S);
          model.forward(u, v, batch);
          EXPECT_TRUE(same_bits(v, unfused_forward(model, u, batch))) << "complex lane";

          const auto ur = random_reals(batch * c.in * S, 73u + static_cast<unsigned>(batch));
          std::vector<float> vr(batch * c.out * S);
          model.forward_real(ur, vr, batch);
          EXPECT_TRUE(same_bits(vr, unfused_forward(model, ur, batch))) << "real lane";
        }
      }
    }
  }
  runtime::set_thread_count(saved);
}

/// A layer forwards with its weights packed once at construction; writing
/// new weights through weights() must take effect at the next forward.
/// `a` and `b` differ only in their seeds.
template <class Conv>
void expect_rewritten_weights_take_effect(Conv a, Conv b, std::size_t in_elems,
                                          std::size_t out_elems) {
  const auto u = random_signal(in_elems, 91u);
  const auto ur = random_reals(in_elems, 93u);
  std::vector<c32> va(out_elems);
  std::vector<c32> vb(out_elems);
  std::vector<float> ra(out_elems);
  std::vector<float> rb(out_elems);
  a.forward(u, va, 1);  // runs on a's own packed weights
  a.forward_real(ur, ra, 1);
  const auto w = a.weights();
  std::copy(std::as_const(b).weights().begin(), std::as_const(b).weights().end(), w.begin());
  a.forward(u, va, 1);
  b.forward(u, vb, 1);
  EXPECT_TRUE(same_bits(va, vb)) << "complex lane";
  a.forward_real(ur, ra, 1);
  b.forward_real(ur, rb, 1);
  EXPECT_TRUE(same_bits(ra, rb)) << "real lane";
}

TEST(FusedLayer2d, RewrittenSpectralWeightsTakeEffect) {
  for (const Backend row : {Backend::FusedFftGemm, Backend::FusedGemmIfft, Backend::FullyFused}) {
    SCOPED_TRACE(static_cast<int>(row));
    expect_rewritten_weights_take_effect(
        SpectralConv1d(1, 24, 24, 64, 16, row, WeightScheme::Shared, 3u),
        SpectralConv1d(1, 24, 24, 64, 16, row, WeightScheme::Shared, 4u), 24 * 64, 24 * 64);
    expect_rewritten_weights_take_effect(
        SpectralConv2d(1, 24, 24, 32, 16, 12, 6, row, WeightScheme::Shared, 3u),
        SpectralConv2d(1, 24, 24, 32, 16, 12, 6, row, WeightScheme::Shared, 4u), 24 * 32 * 16,
        24 * 32 * 16);
  }
}

TEST(FusedLayer2d, RewrittenModelWeightsTakeEffect) {
  // Through the model: a checkpoint restore writes every layer's weights.
  Fno2dConfig cfg;
  cfg.in_channels = 1;
  cfg.hidden = 24;
  cfg.out_channels = 1;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.modes_x = 12;
  cfg.modes_y = 6;
  cfg.layers = 2;
  cfg.backend = Backend::FullyFused;
  Fno2d a(cfg);
  cfg.seed += 17;
  Fno2d b(cfg);
  const auto u = random_signal(cfg.nx * cfg.ny, 95u);
  std::vector<c32> va(u.size());
  std::vector<c32> vb(u.size());
  a.forward(u, va, 1);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    const auto w = a.spectral_layers()[l].weights();
    const auto& bl = std::as_const(b);
    std::copy(bl.spectral_layers()[l].weights().begin(), bl.spectral_layers()[l].weights().end(),
              w.begin());
    const auto wr = a.residual_layers()[l].weights();
    std::copy(bl.residual_layers()[l].weights().begin(), bl.residual_layers()[l].weights().end(),
              wr.begin());
  }
  const auto& bc = std::as_const(b);
  std::copy(bc.lift().weights().begin(), bc.lift().weights().end(), a.lift().weights().begin());
  std::copy(bc.projection().weights().begin(), bc.projection().weights().end(),
            a.projection().weights().begin());
  a.forward(u, va, 1);
  b.forward(u, vb, 1);
  EXPECT_TRUE(same_bits(va, vb));
}

}  // namespace
}  // namespace turbofno::core
