// The 2D middle-stage schedule: batch-group staging must be invisible in
// the results — bitwise, for every ladder variant, both spectral lanes,
// every group size and micro-batch prefix — FftPlan2d's per-field fused
// path must match its two-pass path bitwise, and the tile path must reach
// an allocation-free steady state.
#include <gtest/gtest.h>

#include <vector>

#include "fft/fft2d.hpp"
#include "fft/reference.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline2d.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno {
namespace {

using baseline::Spectral2dProblem;
using fused::Variant;
using testing::fft_tol;
using testing::max_err;
using testing::random_reals;
using testing::random_signal;
using testing::same_bits;

// Restores the default group policy even when a test fails mid-flight.
struct GroupGuard {
  ~GroupGuard() { fused::set_fused_mid_group(0); }
};

// ------------------------------------------------ pipeline ladder parity

// Group sizes the ladder tests force; the default policy stages every
// batch below in one group, so each of these crosses group boundaries.
constexpr std::size_t kGroups[] = {1, 2, 3};

class FusedMidLadder : public ::testing::TestWithParam<Spectral2dProblem> {};

TEST_P(FusedMidLadder, GroupSizesBitwiseMatchDefaultAllVariantsBothLanes) {
  // Grouping reorders work, not arithmetic: every 1D transform still
  // gathers the same values into the same contiguous work buffer and the
  // k-loop accumulates in the same order, so every group size must agree
  // with the default bit for bit — on the complex and the real lane.
  const GroupGuard guard;
  const Spectral2dProblem& prob = GetParam();
  const auto u = random_signal(prob.input_elems(), 811u + static_cast<unsigned>(prob.nx));
  const auto ur = random_reals(prob.input_elems(), 812u + static_cast<unsigned>(prob.ny));
  const auto w = random_signal(prob.weight_elems(), 813u);

  for (const auto var : fused::kAllVariants) {
    auto pipe = fused::make_pipeline2d(var, prob);
    fused::set_fused_mid_group(0);
    std::vector<c32> ref(prob.output_elems());
    std::vector<float> ref_r(prob.output_elems());
    pipe->run_batched(u, w, ref, prob.batch);
    pipe->run_batched_real(ur, w, ref_r, prob.batch);

    for (const std::size_t group : kGroups) {
      fused::set_fused_mid_group(group);
      std::vector<c32> got(prob.output_elems());
      std::vector<float> got_r(prob.output_elems());
      pipe->run_batched(u, w, got, prob.batch);
      pipe->run_batched_real(ur, w, got_r, prob.batch);
      EXPECT_TRUE(same_bits(got, ref)) << pipe->name() << " group=" << group;
      EXPECT_TRUE(same_bits(got_r, ref_r)) << pipe->name() << " real group=" << group;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedMidLadder,
    ::testing::Values(Spectral2dProblem{1, 8, 8, 16, 16, 4, 4},
                      Spectral2dProblem{3, 8, 8, 16, 32, 8, 8},
                      Spectral2dProblem{5, 8, 6, 16, 16, 4, 8},    // ragged last group
                      Spectral2dProblem{2, 12, 6, 32, 16, 8, 4},   // K not a k_tb multiple
                      Spectral2dProblem{2, 6, 10, 16, 16, 16, 16}, // no truncation
                      Spectral2dProblem{3, 8, 8, 32, 32, 1, 1},    // modes_x == 1
                      Spectral2dProblem{4, 8, 8, 16, 64, 4, 16})); // ny spanning slabs

TEST(FusedMidBatched, MicroBatchPrefixesBitwiseMatchAcrossGroupSizes) {
  // The serving path: micro-batches below capacity must agree across group
  // sizes too, including micro-batches that are not a multiple of the
  // group size.
  const GroupGuard guard;
  const Spectral2dProblem p{5, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 821u);
  const auto ur = random_reals(p.input_elems(), 822u);
  const auto w = random_signal(p.weight_elems(), 823u);
  const std::size_t in_stride = p.hidden * p.nx * p.ny;
  const std::size_t out_stride = p.out_dim * p.nx * p.ny;
  const std::span<const c32> uspan{u};
  const std::span<const float> urspan{ur};

  for (const auto var : fused::kAllVariants) {
    auto pipe = fused::make_pipeline2d(var, p);
    for (std::size_t b = 1; b <= p.batch; ++b) {
      fused::set_fused_mid_group(0);
      std::vector<c32> ref(b * out_stride);
      std::vector<float> ref_r(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, ref, b);
      pipe->run_batched_real(urspan.first(b * in_stride), w, ref_r, b);

      fused::set_fused_mid_group(2);
      std::vector<c32> got(b * out_stride);
      std::vector<float> got_r(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, got, b);
      pipe->run_batched_real(urspan.first(b * in_stride), w, got_r, b);
      EXPECT_TRUE(same_bits(got, ref)) << pipe->name() << " micro-batch " << b;
      EXPECT_TRUE(same_bits(got_r, ref_r)) << pipe->name() << " real micro-batch " << b;
    }
  }
}

TEST(FusedMidLadderReference, FusedDefaultMatchesDirectReferenceViaBaseline) {
  // Anchor the schedule to ground truth (not only to itself): the
  // baseline pipeline computes through a completely different code path.
  // The second shape keeps one x-row, a single-column staging tile.
  for (const Spectral2dProblem& p :
       {Spectral2dProblem{2, 16, 12, 32, 64, 8, 16}, Spectral2dProblem{2, 8, 8, 32, 32, 1, 4}}) {
    const auto u = random_signal(p.input_elems(), 827u);
    const auto w = random_signal(p.weight_elems(), 829u);
    auto base = fused::make_pipeline2d(Variant::PyTorch, p);
    std::vector<c32> vb(p.output_elems());
    base->run(u, w, vb);
    for (const auto var : {Variant::FftOpt, Variant::FusedFftGemm, Variant::FusedGemmIfft,
                           Variant::FullyFused}) {
      auto pipe = fused::make_pipeline2d(var, p);
      std::vector<c32> vo(p.output_elems());
      pipe->run(u, w, vo);
      EXPECT_LT(testing::rel_err(vo, vb), 1e-4) << pipe->name() << " modes_x=" << p.modes_x;
    }
  }
}

// ------------------------------------------------ FftPlan2d fused execute

fft::FftPlan2d make2d(std::size_t nx, std::size_t ny, fft::Direction dir, std::size_t kx = 0,
                      std::size_t ky = 0) {
  fft::Plan2dDesc d;
  d.nx = nx;
  d.ny = ny;
  d.dir = dir;
  d.keep_x = kx;
  d.keep_y = ky;
  return fft::FftPlan2d(d);
}

// FftPlan2d takes the per-field fused path only when the batch can feed the
// worker pool (batch >= thread_count()), so the thread count picks the
// branch deterministically regardless of the test host's core count.
struct ThreadGuard {
  explicit ThreadGuard(int n) { runtime::set_thread_count(n); }
  ~ThreadGuard() { runtime::set_thread_count(0); }
};

TEST(FusedMidPlan2d, PerFieldFusedBitwiseMatchesTwoPassBothDirections) {
  const ThreadGuard restore(0);
  struct Case {
    std::size_t nx, ny, kx, ky, batch;
  };
  for (const auto& [nx, ny, kx, ky, batch] :
       {Case{2, 2, 0, 0, 1}, Case{2, 64, 0, 0, 2}, Case{64, 2, 0, 0, 2},
        Case{32, 32, 8, 4, 3}, Case{16, 64, 4, 16, 2}, Case{128, 32, 32, 8, 1}}) {
    const std::size_t kxe = kx == 0 ? nx : kx;
    const std::size_t kye = ky == 0 ? ny : ky;
    const auto field = random_signal(batch * nx * ny, 831u + static_cast<unsigned>(nx + ny));
    const auto spec = random_signal(batch * kxe * kye, 833u + static_cast<unsigned>(nx + ny));
    const fft::FftPlan2d fwd = make2d(nx, ny, fft::Direction::Forward, kx, ky);
    const fft::FftPlan2d inv = make2d(nx, ny, fft::Direction::Inverse, kx, ky);

    std::vector<c32> f0(batch * kxe * kye), f1(batch * kxe * kye);
    std::vector<c32> i0(batch * nx * ny), i1(batch * nx * ny);
    runtime::set_thread_count(static_cast<int>(batch) + 1);  // two-pass
    fwd.execute(field, f0, batch);
    inv.execute(spec, i0, batch);
    runtime::set_thread_count(1);  // per-field fused
    fwd.execute(field, f1, batch);
    inv.execute(spec, i1, batch);
    EXPECT_TRUE(same_bits(f1, f0)) << nx << "x" << ny << " fwd";
    EXPECT_TRUE(same_bits(i1, i0)) << nx << "x" << ny << " inv";
  }
}

TEST(FusedMidPlan2d, FusedForwardMatchesReference) {
  const ThreadGuard threads(1);
  const std::size_t nx = 16, ny = 32;
  const auto in = random_signal(nx * ny, 839u);
  std::vector<c32> out(nx * ny);
  make2d(nx, ny, fft::Direction::Forward).execute(in, out, 1);

  std::vector<c32> mid(nx * ny), col(nx), colf(nx), want(nx * ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) col[x] = in[x * ny + y];
    fft::reference_dft(col, colf, nx);
    for (std::size_t x = 0; x < nx; ++x) mid[x * ny + y] = colf[x];
  }
  for (std::size_t x = 0; x < nx; ++x) {
    fft::reference_dft(std::span<const c32>(mid.data() + x * ny, ny),
                       std::span<c32>(want.data() + x * ny, ny), ny);
  }
  EXPECT_LT(max_err(out, want), fft_tol(nx * ny));
}

// ------------------------------------------------------- arena steady state

TEST(FusedMidScratch, SteadyStateDoesNotGrowOnTheTilePath) {
  // The tile path must reach a zero-per-forward allocation steady state:
  // after one warm-up run, repeated forwards grow neither the calling
  // thread's arena nor (observably) anything else the run touches.
  const GroupGuard guard;
  fused::set_fused_mid_group(2);
  const Spectral2dProblem p{3, 8, 8, 32, 32, 8, 8};
  const auto u = random_signal(p.input_elems(), 841u);
  const auto w = random_signal(p.weight_elems(), 843u);
  std::vector<c32> v(p.output_elems());

  auto pipe = fused::make_pipeline2d(Variant::FullyFused, p);
  pipe->run(u, w, v);  // warm-up sizes the arena and the staging tiles
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int i = 0; i < 10; ++i) pipe->run(u, w, v);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());

  // FftPlan2d's fused execute shares the property.
  const ThreadGuard threads(1);  // batch=1 must still take the fused path
  const fft::FftPlan2d plan = make2d(p.nx, p.ny, fft::Direction::Forward, 8, 8);
  std::vector<c32> spec(8 * 8);
  plan.execute(std::span<const c32>(u).first(p.nx * p.ny), spec, 1);
  const std::size_t reserved2 = runtime::tls_scratch().bytes_reserved();
  for (int i = 0; i < 10; ++i) {
    plan.execute(std::span<const c32>(u).first(p.nx * p.ny), spec, 1);
  }
  EXPECT_EQ(reserved2, runtime::tls_scratch().bytes_reserved());
}

}  // namespace
}  // namespace turbofno
