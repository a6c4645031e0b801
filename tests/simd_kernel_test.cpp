// Parity tests for the explicit SIMD layer (tensor/simd.hpp) and every
// kernel built on it: cvec ops against plain c32 arithmetic, the split
// CGEMM against the naive reference at non-tile-multiple dims, the FFT
// butterfly kernels across all radix paths and odd filters, and the fused
// k-loop's tile accumulation.  Each test runs the scalar backend and, when the binary was
// compiled with AVX2 (AVX-512) support, the AVX2 (and AVX-512) backend
// through identical sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "fft/kernels.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "fft/twiddle.hpp"
#include "gemm/cgemm.hpp"
#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "gemm/reference.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/simd.hpp"
#include "test_util.hpp"

namespace turbofno {
namespace {

using testing::max_err;
using testing::random_signal;

// ------------------------------------------------------------- cvec op parity

template <class B>
void check_cvec_ops() {
  const std::size_t lanes = B::lanes;
  const std::vector<c32> a = random_signal(lanes, 101u);
  const std::vector<c32> b = random_signal(lanes, 102u);

  std::vector<c32> out(lanes);

  // load/store round trip.
  B::store(out.data(), B::load(a.data()));
  EXPECT_EQ(0.0, max_err(out, a));

  // Arithmetic, lane by lane, against c32 operators.
  std::vector<c32> want(lanes);
  B::store(out.data(), B::cmul(B::load(a.data()), B::load(b.data())));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = a[i] * b[i];
  EXPECT_LT(max_err(out, want), 1e-6);

  B::store(out.data(), B::cmadd(B::load(a.data()), B::load(b.data()), B::load(a.data())));
  for (std::size_t i = 0; i < lanes; ++i) {
    want[i] = a[i];
    cmadd(want[i], b[i], a[i]);
  }
  EXPECT_LT(max_err(out, want), 1e-6);

  B::store(out.data(), B::add(B::load(a.data()), B::load(b.data())));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = a[i] + b[i];
  EXPECT_EQ(0.0, max_err(out, want));

  B::store(out.data(), B::sub(B::load(a.data()), B::load(b.data())));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = a[i] - b[i];
  EXPECT_EQ(0.0, max_err(out, want));

  B::store(out.data(), B::mul_neg_i(B::load(a.data())));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = mul_neg_i(a[i]);
  EXPECT_EQ(0.0, max_err(out, want));

  B::store(out.data(), B::mul_pos_i(B::load(a.data())));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = mul_pos_i(a[i]);
  EXPECT_EQ(0.0, max_err(out, want));

  B::store(out.data(), B::scale(B::load(a.data()), 0.75f));
  for (std::size_t i = 0; i < lanes; ++i) want[i] = a[i] * 0.75f;
  EXPECT_EQ(0.0, max_err(out, want));

  // Broadcast fills every lane.
  B::store(out.data(), B::broadcast(b[0]));
  for (std::size_t i = 0; i < lanes; ++i) EXPECT_EQ(out[i], b[0]);

  // Split loads/stores agree with interleaved ones.
  std::vector<float> re(lanes);
  std::vector<float> im(lanes);
  B::store_split(re.data(), im.data(), B::load(a.data()));
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(re[i], a[i].re);
    EXPECT_EQ(im[i], a[i].im);
  }
  B::store(out.data(), B::load_split(re.data(), im.data()));
  EXPECT_EQ(0.0, max_err(out, a));
}

template <class B>
void check_cvec_partials() {
  const std::size_t lanes = B::lanes;
  const std::vector<c32> a = random_signal(lanes, 103u);
  const c32 zero{};
  const c32 sentinel{-3.0f, 5.0f};
  for (std::size_t count = 0; count <= lanes; ++count) {
    // Partial load: first `count` lanes real, the rest zero.
    std::vector<c32> out(lanes, c32{7.0f, 7.0f});
    B::store(out.data(), B::load_partial(a.data(), count));
    for (std::size_t i = 0; i < lanes; ++i) {
      const c32 want = i < count ? a[i] : zero;
      EXPECT_EQ(out[i], want) << "count=" << count << " lane=" << i;
    }
    // Partial store: lanes past `count` must be untouched.
    std::vector<c32> dst(lanes, sentinel);
    B::store_partial(dst.data(), B::load(a.data()), count);
    for (std::size_t i = 0; i < lanes; ++i) {
      const c32 want = i < count ? a[i] : sentinel;
      EXPECT_EQ(dst[i], want) << "count=" << count << " lane=" << i;
    }
  }
}

TEST(SimdCvec, ScalarOps) { check_cvec_ops<simd::ScalarBackend>(); }
TEST(SimdCvec, ScalarPartials) { check_cvec_partials<simd::ScalarBackend>(); }

#if TURBOFNO_SIMD_HAVE_AVX2
TEST(SimdCvec, Avx2Ops) { check_cvec_ops<simd::Avx2Backend>(); }
TEST(SimdCvec, Avx2Partials) { check_cvec_partials<simd::Avx2Backend>(); }
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
TEST(SimdCvec, Avx512Ops) { check_cvec_ops<simd::Avx512Backend>(); }
TEST(SimdCvec, Avx512Partials) { check_cvec_partials<simd::Avx512Backend>(); }
#endif

TEST(SimdCvec, ActiveBackendReport) {
#if TURBOFNO_SIMD_HAVE_AVX512
  EXPECT_STREQ("avx512", simd::active_backend());
  EXPECT_EQ(16u, simd::kLanes);
#elif TURBOFNO_SIMD_HAVE_AVX2
  EXPECT_STREQ("avx2", simd::active_backend());
  EXPECT_EQ(8u, simd::kLanes);
#else
  EXPECT_STREQ("scalar", simd::active_backend());
  EXPECT_EQ(1u, simd::kLanes);
#endif
  EXPECT_EQ(simd::round_up_lanes(1), simd::kLanes);
  EXPECT_EQ(simd::round_up_lanes(simd::kLanes), simd::kLanes);
}

TEST(SimdCvec, SplitInterleaveRoundTrip) {
  for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 64u}) {
    const std::vector<c32> src = random_signal(n, 104u + static_cast<unsigned>(n));
    std::vector<float> re(n);
    std::vector<float> im(n);
    std::vector<c32> back(n);
    simd::split_planes(src.data(), re.data(), im.data(), n);
    simd::interleave_planes(re.data(), im.data(), back.data(), n);
    EXPECT_EQ(0.0, max_err(back, src)) << "n=" << n;
  }
}

// --------------------------------------------------------------- cgemm parity

template <class Cfg, class B>
void check_cgemm_backend() {
  // Dims deliberately not multiples of the tile config; alpha/beta exercise
  // both epilogue paths.
  const c32 alphas[] = {c32{1.0f, 0.0f}, c32{0.7f, -0.3f}};
  const c32 betas[] = {c32{0.0f, 0.0f}, c32{-0.5f, 0.25f}};
  const std::size_t dims[][3] = {{1, 1, 1},    {3, 5, 7},    {17, 9, 33},
                                 {33, 31, 13}, {64, 64, 64}, {65, 33, 17}};
  unsigned seed = 1000;
  for (const auto& d : dims) {
    const std::size_t M = d[0];
    const std::size_t N = d[1];
    const std::size_t K = d[2];
    for (const c32 alpha : alphas) {
      for (const c32 beta : betas) {
        const std::vector<c32> A = random_signal(M * K, ++seed);
        const std::vector<c32> Bm = random_signal(K * N, ++seed);
        std::vector<c32> C = random_signal(M * N, ++seed);
        std::vector<c32> want = C;

        gemm::cgemm_tiled_backend<Cfg, B>(M, N, K, alpha, A.data(), K, Bm.data(), N, beta,
                                          C.data(), N);
        gemm::cgemm_reference(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, want.data(), N);

        // K accumulated floats; the reference accumulates in the same
        // precision, so the error is just reassociation noise.
        const double tol = 1e-5 * std::sqrt(static_cast<double>(K)) * 4.0;
        EXPECT_LT(max_err(C, want), tol) << "M=" << M << " N=" << N << " K=" << K;
      }
    }
  }
}

TEST(SimdCgemm, ScalarFusedTiles) {
  check_cgemm_backend<gemm::FusedTiles, simd::ScalarBackend>();
}
TEST(SimdCgemm, ScalarStandaloneTiles) {
  check_cgemm_backend<gemm::StandaloneTiles, simd::ScalarBackend>();
}
#if TURBOFNO_SIMD_HAVE_AVX2
TEST(SimdCgemm, Avx2FusedTiles) { check_cgemm_backend<gemm::FusedTiles, simd::Avx2Backend>(); }
TEST(SimdCgemm, Avx2StandaloneTiles) {
  check_cgemm_backend<gemm::StandaloneTiles, simd::Avx2Backend>();
}
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
TEST(SimdCgemm, Avx512FusedTiles) {
  check_cgemm_backend<gemm::FusedTiles, simd::Avx512Backend>();
}
TEST(SimdCgemm, Avx512StandaloneTiles) {
  check_cgemm_backend<gemm::StandaloneTiles, simd::Avx512Backend>();
}
#endif

// ----------------------------------------------------------------- fft parity

template <class B>
void check_stockham_passes() {
  // Drive a full transform through the backend-explicit pass kernels and
  // compare against the double-precision DFT, covering the radix-4 path,
  // the radix-2 fallback pass, and sub-lane strides.
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 256u, 512u}) {
    const std::vector<c32> input = random_signal(n, 300u + static_cast<unsigned>(n));
    const fft::TwiddleTable& tw = fft::twiddles_for(n);

    std::vector<c32> a = input;
    std::vector<c32> b(n);
    c32* src = a.data();
    c32* dst = b.data();
    std::size_t len = n;
    std::size_t s = 1;
    while (len > 1) {
      if (len % 4 == 0) {
        fft::kernels::pass_radix4<B, false>(src, dst, len / 4, s, tw.forward(len));
        len /= 4;
        s *= 4;
      } else {
        fft::kernels::pass_radix2<B, false>(src, dst, len / 2, s, tw.forward(len));
        len /= 2;
        s *= 2;
      }
      std::swap(src, dst);
    }

    std::vector<c32> want(n);
    fft::reference_dft(input, want, n);
    EXPECT_LT(max_err({src, n}, want), testing::fft_tol(n)) << "n=" << n;
  }
}

TEST(SimdFft, ScalarStockhamPasses) { check_stockham_passes<simd::ScalarBackend>(); }
#if TURBOFNO_SIMD_HAVE_AVX2
TEST(SimdFft, Avx2StockhamPasses) { check_stockham_passes<simd::Avx2Backend>(); }
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
// The AVX-512 backend inherits the packed half, so its FFT passes are the
// AVX2 ones.
static_assert(std::is_same_v<simd::Avx512Backend::pvec, simd::Avx2Backend::pvec>);
static_assert(simd::Avx512Backend::planes == simd::Avx2Backend::planes);
TEST(SimdFft, Avx512StockhamPasses) { check_stockham_passes<simd::Avx512Backend>(); }
#endif

template <class B>
void check_stockham_radix2_only() {
  // The pure radix-2 schedule walks s = 1, 2, 4, ... and so exercises every
  // sub-lane (s < planes) radix-2 path, which the mixed-radix sweep above
  // never reaches (its s jumps 1 -> 4).
  for (const std::size_t n : {2u, 4u, 8u, 16u, 64u, 128u}) {
    const std::vector<c32> input = random_signal(n, 340u + static_cast<unsigned>(n));
    const fft::TwiddleTable& tw = fft::twiddles_for(n);
    std::vector<c32> a = input;
    std::vector<c32> b(n);
    c32* src = a.data();
    c32* dst = b.data();
    std::size_t len = n;
    std::size_t s = 1;
    while (len > 1) {
      fft::kernels::pass_radix2<B, false>(src, dst, len / 2, s, tw.forward(len));
      len /= 2;
      s *= 2;
      std::swap(src, dst);
    }
    std::vector<c32> want(n);
    fft::reference_dft(input, want, n);
    EXPECT_LT(max_err({src, n}, want), testing::fft_tol(n)) << "n=" << n;
  }
}

TEST(SimdFft, ScalarStockhamRadix2Only) { check_stockham_radix2_only<simd::ScalarBackend>(); }
#if TURBOFNO_SIMD_HAVE_AVX2
TEST(SimdFft, Avx2StockhamRadix2Only) { check_stockham_radix2_only<simd::Avx2Backend>(); }

TEST(SimdFft, SubLanePassesMatchScalarBackend) {
  // Per-pass parity of the lane-major sub-lane paths against the scalar
  // backend, including l just past a vector (tail handling) and both
  // directions (the radix-4 quarter-turn differs).
  struct Case {
    std::size_t l, s;
    bool radix4;
  };
  for (const auto& [l, s, radix4] : std::vector<Case>{{4, 1, false},
                                                      {5, 1, false},
                                                      {8, 1, false},
                                                      {2, 2, false},
                                                      {3, 2, false},
                                                      {8, 2, false},
                                                      {4, 1, true},
                                                      {6, 1, true},
                                                      {16, 1, true}}) {
    const std::size_t radix = radix4 ? 4 : 2;
    const std::size_t len = radix * l;  // sub-transform length of this pass
    const std::size_t elems = s * len;
    // Build the pass twiddles directly (kernels accept any l; the table
    // only serves power-of-two lengths, which would exclude the tail cases).
    std::vector<c32> wf(len / 2), wi(len / 2);
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double ang = -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(len);
      wf[j] = c32{static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
      wi[j] = c32{wf[j].re, -wf[j].im};
    }
    const auto src = random_signal(elems, 350u + static_cast<unsigned>(elems));
    std::vector<c32> ds(elems), dv(elems);
    for (const bool inverse : {false, true}) {
      const std::span<const c32> w = inverse ? wi : wf;
      if (radix4) {
        if (inverse) {
          fft::kernels::pass_radix4<simd::ScalarBackend, true>(src.data(), ds.data(), l, s, w);
          fft::kernels::pass_radix4<simd::Avx2Backend, true>(src.data(), dv.data(), l, s, w);
        } else {
          fft::kernels::pass_radix4<simd::ScalarBackend, false>(src.data(), ds.data(), l, s, w);
          fft::kernels::pass_radix4<simd::Avx2Backend, false>(src.data(), dv.data(), l, s, w);
        }
      } else {
        if (inverse) {
          fft::kernels::pass_radix2<simd::ScalarBackend, true>(src.data(), ds.data(), l, s, w);
          fft::kernels::pass_radix2<simd::Avx2Backend, true>(src.data(), dv.data(), l, s, w);
        } else {
          fft::kernels::pass_radix2<simd::ScalarBackend, false>(src.data(), ds.data(), l, s, w);
          fft::kernels::pass_radix2<simd::Avx2Backend, false>(src.data(), dv.data(), l, s, w);
        }
      }
      EXPECT_LT(max_err(dv, ds), 1e-6)
          << "l=" << l << " s=" << s << " radix=" << radix << " inv=" << inverse;
    }
  }
}
#endif

TEST(SimdFft, PrunedPlansOddFiltering) {
  // End-to-end filtered plans (the active backend) at keep/nonzero values
  // that are not lane multiples, against the double-precision reference.
  const std::size_t n = 128;
  for (const std::size_t keep : {1u, 5u, 13u, 64u, 127u}) {
    for (const std::size_t nonzero : {3u, 17u, 96u, 128u}) {
      const std::vector<c32> input = random_signal(nonzero, 500u + static_cast<unsigned>(keep));

      fft::PlanDesc d;
      d.n = n;
      d.dir = fft::Direction::Forward;
      d.keep = keep;
      d.nonzero = nonzero;
      const fft::FftPlan plan(d);

      std::vector<c32> out(keep);
      plan.execute(input, out, 1);

      std::vector<c32> want(keep);
      fft::reference_dft(input, want, n);
      EXPECT_LT(max_err(out, want), testing::fft_tol(n))
          << "keep=" << keep << " nonzero=" << nonzero;
    }
  }
}

// --------------------------------------------------- fused k-loop accumulate

// Interleaved oracle of the fused k-loop's multiply-accumulate:
// C[o, f] += W[o, k0 + kk] * S[k0 + kk, f] for kk < kc, one k-ordered cmadd
// chain per output.
void kloop_mac_oracle(std::vector<c32>& C, const std::vector<c32>& W, std::size_t hidden,
                      const std::vector<c32>& S, std::size_t out_dim, std::size_t m,
                      std::size_t k0, std::size_t kc) {
  for (std::size_t o = 0; o < out_dim; ++o) {
    for (std::size_t f = 0; f < m; ++f) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        cmadd(C[o * m + f], W[o * hidden + k0 + kk], S[(k0 + kk) * m + f]);
      }
    }
  }
}

// gemm::accumulate_tile_split over FusedTiles panels, as the fused k-loop
// runs it: W packed as A panels, the spectra as B panels, one Mtb x Ntb
// split accumulator tile per (row tile, f tile).  m and out_dim cross the
// backend's register block (gemm::RegBlock, and its one-vector column
// tail) and the tile (Mtb, Ntb) edges; hidden = 12 runs a full k-tile,
// then a short one.
template <class B>
void check_accumulate_tile_split() {
  using Cfg = gemm::FusedTiles;
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t Ktb = Cfg::Ktb;
  constexpr std::size_t kTile = 2 * Mtb * Ntb;
  const std::size_t hidden = 12;
  for (const std::size_t m : {1u, 5u, 13u, 33u, 64u}) {
    for (const std::size_t out_dim : {6u, 37u, 41u}) {
      const auto seed = static_cast<unsigned>(600 + m + out_dim);
      const std::vector<c32> W = random_signal(out_dim * hidden, seed);
      const std::vector<c32> S = random_signal(hidden * m, seed + 1);
      std::vector<c32> want = random_signal(out_dim * m, seed + 2);
      const std::size_t tn = (m + Ntb - 1) / Ntb;
      AlignedBuffer<float> acc(((out_dim + Mtb - 1) / Mtb) * tn * kTile);
      const auto at = [&](std::size_t o, std::size_t f) {
        return acc.data() + (o / Mtb * tn + f / Ntb) * kTile + o % Mtb * Ntb + f % Ntb;
      };
      for (std::size_t o = 0; o < out_dim; ++o) {
        for (std::size_t f = 0; f < m; ++f) {
          *at(o, f) = want[o * m + f].re;
          at(o, f)[Mtb * Ntb] = want[o * m + f].im;
        }
      }

      AlignedBuffer<float> apanel(2 * Mtb * Ktb);
      AlignedBuffer<float> bpanels(tn * 2 * Ntb * Ktb);
      for (std::size_t k0 = 0; k0 < hidden; k0 += Ktb) {
        const std::size_t kc = std::min(Ktb, hidden - k0);
        kloop_mac_oracle(want, W, hidden, S, out_dim, m, k0, kc);
        for (std::size_t j0 = 0; j0 < m; j0 += Ntb) {
          gemm::pack_b_tile_split<Ntb, B>(bpanels.data() + j0 / Ntb * 2 * Ntb * Ktb, S.data(), m,
                                          k0, j0, kc, std::min(Ntb, m - j0));
        }
        for (std::size_t i0 = 0; i0 < out_dim; i0 += Mtb) {
          const std::size_t mi = std::min(Mtb, out_dim - i0);
          gemm::pack_a_tile_split<gemm::RegBlock<B, false>::rows>(apanel.data(), W.data(), hidden,
                                                                  i0, k0, mi, kc);
          for (std::size_t j0 = 0; j0 < m; j0 += Ntb) {
            gemm::accumulate_tile_split<Cfg, B>(at(i0, j0), apanel.data(),
                                                bpanels.data() + j0 / Ntb * 2 * Ntb * Ktb, kc,
                                                mi, std::min(Ntb, m - j0));
          }
        }
      }

      std::vector<c32> got(out_dim * m);
      for (std::size_t o = 0; o < out_dim; ++o) {
        for (std::size_t f = 0; f < m; ++f) got[o * m + f] = {*at(o, f), at(o, f)[Mtb * Ntb]};
      }
      EXPECT_LT(max_err(got, want), 1e-5) << "m=" << m << " out_dim=" << out_dim;
    }
  }
}

TEST(SimdFused, ScalarAccumulateTileSplitMatchesInterleaved) {
  check_accumulate_tile_split<simd::ScalarBackend>();
}
#if TURBOFNO_SIMD_HAVE_AVX2
TEST(SimdFused, Avx2AccumulateTileSplitMatchesInterleaved) {
  check_accumulate_tile_split<simd::Avx2Backend>();
}
#endif
#if TURBOFNO_SIMD_HAVE_AVX512
TEST(SimdFused, Avx512AccumulateTileSplitMatchesInterleaved) {
  check_accumulate_tile_split<simd::Avx512Backend>();
}
#endif

}  // namespace
}  // namespace turbofno
