// Property suite over the fused pipeline ladder: the recorded traffic
// counters must equal the closed-form byte/FLOP formulas derived from the
// problem shape, for every variant over a shape grid.  These are the same
// identities the A100 predictions rest on, so drift here would silently
// corrupt every modeled figure.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fft/opcount.hpp"
#include "fft/plan_cache.hpp"
#include "fused/ladder.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using baseline::Spectral2dProblem;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;

class CounterLaws1d : public ::testing::TestWithParam<Spectral1dProblem> {};

trace::StageCounters run_total_1d(Variant var, const Spectral1dProblem& p) {
  const auto u = random_signal(p.input_elems(), 3001u);
  const auto w = random_signal(p.weight_elems(), 3003u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline1d(var, p);
  pipe->run(u, w, v);
  return pipe->counters().total();
}

TEST_P(CounterLaws1d, BaselineBytesFormula) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::PyTorch, p);
  const std::uint64_t e = sizeof(c32);
  // fft r/w full + trunc copy r/w + gemm (A=W once, B, C) + pad copy + ifft.
  const std::uint64_t expect_read =
      (p.batch * p.hidden * p.n) * e + (p.batch * p.hidden * p.modes) * e +
      (p.batch * p.hidden * p.modes + p.out_dim * p.hidden) * e +
      (p.batch * p.out_dim * p.modes) * e + (p.batch * p.out_dim * p.n) * e;
  const std::uint64_t expect_write =
      (p.batch * p.hidden * p.n) * e + (p.batch * p.hidden * p.modes) * e +
      (p.batch * p.out_dim * p.modes) * e + (p.batch * p.out_dim * p.n) * e +
      (p.batch * p.out_dim * p.n) * e;
  EXPECT_EQ(t.bytes_read, expect_read);
  EXPECT_EQ(t.bytes_written, expect_write);
  EXPECT_EQ(t.kernel_launches, 5u);
}

TEST_P(CounterLaws1d, FullyFusedBytesFormula) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::FullyFused, p);
  EXPECT_EQ(t.bytes_read, (p.input_elems() + p.weight_elems()) * sizeof(c32));
  EXPECT_EQ(t.bytes_written, p.output_elems() * sizeof(c32));
  EXPECT_EQ(t.kernel_launches, 1u);
}

TEST_P(CounterLaws1d, FusedFlopsDecomposition) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::FullyFused, p);
  const auto fwd = fft::count_pruned_ops(p.n, p.modes, p.n).flops();
  const auto inv = fft::count_pruned_ops(p.n, p.n, p.modes).flops();
  const std::uint64_t expect = p.batch * p.hidden * fwd +
                               trace::cgemm_flops(p.batch * p.modes, p.out_dim, p.hidden) +
                               p.batch * p.out_dim * inv;
  EXPECT_EQ(t.flops, expect);
}

TEST_P(CounterLaws1d, PartialFusionsBracketTheEndpoints) {
  const auto& p = GetParam();
  const auto base = run_total_1d(Variant::PyTorch, p).bytes_total();
  const auto a = run_total_1d(Variant::FftOpt, p).bytes_total();
  const auto b = run_total_1d(Variant::FusedFftGemm, p).bytes_total();
  const auto c = run_total_1d(Variant::FusedGemmIfft, p).bytes_total();
  const auto d = run_total_1d(Variant::FullyFused, p).bytes_total();
  EXPECT_GT(base, a);
  EXPECT_GE(a, b);
  EXPECT_GE(a, c);
  EXPECT_GE(b, d);
  EXPECT_GE(c, d);
}

// Stage vocabulary of every fused row, in run order.  bench/suite and
// bench_fig01c read stages by name, so a renamed or reordered stage (on
// either lane) would silently zero a ledger column.
struct RowStages {
  Variant variant;
  const char* counters;
  std::vector<std::string> stages;  // one launch each
};

const std::vector<RowStages>& rows_1d() {
  static const std::vector<RowStages> rows = {
      {Variant::FftOpt, "fftopt-1d", {"fft-trunc", "cgemm", "ifft-pad"}},
      {Variant::FusedFftGemm, "fused-fft-gemm-1d", {"fused-fft-cgemm", "ifft-pad"}},
      {Variant::FusedGemmIfft, "fused-gemm-ifft-1d", {"fft-trunc", "fused-cgemm-ifft"}},
      {Variant::FullyFused, "fully-fused-1d", {"fused-fft-cgemm-ifft"}},
  };
  return rows;
}

// One run of `var` on the complex or the real lane; returns its counters.
trace::PipelineCounters run_lane_1d(Variant var, const Spectral1dProblem& p, bool real) {
  const auto w = random_signal(p.weight_elems(), 3003u);
  auto pipe = make_pipeline1d(var, p);
  if (real) {
    const auto u = random_reals(p.input_elems(), 3001u);
    std::vector<float> v(p.output_elems());
    pipe->run_batched_real(u, w, v, p.batch);
  } else {
    const auto u = random_signal(p.input_elems(), 3001u);
    std::vector<c32> v(p.output_elems());
    pipe->run_batched(u, w, v, p.batch);
  }
  return pipe->counters();
}

void expect_stages(const trace::PipelineCounters& c, const RowStages& row, bool real) {
  EXPECT_EQ(c.name(), row.counters) << (real ? "real lane" : "complex lane");
  std::vector<std::string> names;
  for (const auto& s : c.stages()) {
    names.push_back(s.name);
    EXPECT_EQ(s.kernel_launches, 1u) << row.counters << " " << s.name;
  }
  EXPECT_EQ(names, row.stages) << row.counters << (real ? " (real lane)" : " (complex lane)");
  EXPECT_EQ(c.total().kernel_launches, row.stages.size()) << row.counters;
}

TEST_P(CounterLaws1d, StageNamesAndLaunchesEveryRowBothLanes) {
  const auto& p = GetParam();
  for (const bool real : {false, true}) {
    for (const auto& row : rows_1d()) expect_stages(run_lane_1d(row.variant, p, real), row, real);
  }
}

TEST_P(CounterLaws1d, FullyFusedRealLaneBytesFormula) {
  // Real samples in and out, complex weights: B*K*n*4 + O*K*8 read,
  // B*O*n*4 written.
  const auto& p = GetParam();
  const auto t = run_lane_1d(Variant::FullyFused, p, true).total();
  EXPECT_EQ(t.bytes_read, p.input_elems() * sizeof(float) + p.weight_elems() * sizeof(c32));
  EXPECT_EQ(t.bytes_written, p.output_elems() * sizeof(float));
  EXPECT_EQ(t.kernel_launches, 1u);
}

TEST_P(CounterLaws1d, RealLaneFlopsEveryRow) {
  // Fusion moves data, not arithmetic: every row reports the half-spectrum
  // chain's FLOPs (modes/2+1 kept bins).
  const auto& p = GetParam();
  const std::size_t mr = p.modes / 2 + 1;
  const std::uint64_t expect =
      p.batch * p.hidden * fft::acquire_rfft_plan(p.n, mr)->flops_per_signal() +
      trace::cgemm_flops(p.batch * mr, p.out_dim, p.hidden) +
      p.batch * p.out_dim * fft::acquire_irfft_plan(p.n, mr)->flops_per_signal();
  for (const auto& row : rows_1d()) {
    EXPECT_EQ(run_lane_1d(row.variant, p, true).total().flops, expect) << row.counters;
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, CounterLaws1d,
                         ::testing::Values(Spectral1dProblem{1, 8, 8, 32, 8},
                                           Spectral1dProblem{3, 16, 8, 64, 16},
                                           Spectral1dProblem{2, 24, 32, 128, 64},
                                           Spectral1dProblem{5, 9, 7, 64, 64},
                                           Spectral1dProblem{4, 32, 32, 256, 64},
                                           Spectral1dProblem{2, 8, 8, 64, 1}));

class CounterLaws2d : public ::testing::TestWithParam<Spectral2dProblem> {};

TEST_P(CounterLaws2d, FullyFusedBytesFormula) {
  const auto& p = GetParam();
  const auto u = random_signal(p.input_elems(), 3011u);
  const auto w = random_signal(p.weight_elems(), 3013u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, p);
  const std::uint64_t e = sizeof(c32);

  // The X spectra stay in staging tiles, so only the true global tensors
  // and the weights count as traffic.
  pipe->run(u, w, v);
  const auto t = pipe->counters().total();
  EXPECT_EQ(t.bytes_read, (p.input_elems() + p.weight_elems()) * e);
  EXPECT_EQ(t.bytes_written, p.output_elems() * e);
  EXPECT_EQ(t.kernel_launches, 3u);
}

TEST_P(CounterLaws2d, TruncationShrinksTheMiddle) {
  // The fused middle stage must move strictly fewer bytes than the input
  // whenever modes_x < nx (the Figure 4 write saving).
  const auto& p = GetParam();
  if (p.modes_x == p.nx) GTEST_SKIP();
  const auto u = random_signal(p.input_elems(), 3017u);
  const auto w = random_signal(p.weight_elems(), 3019u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, p);
  pipe->run(u, w, v);
  std::uint64_t mid_bytes = 0;
  for (const auto& s : pipe->counters().stages()) {
    if (s.name == "fused-fft-cgemm-ifft") mid_bytes = s.bytes_total();
  }
  EXPECT_LT(mid_bytes,
            pipe->counters().stages().front().bytes_total());
}

const std::vector<RowStages>& rows_2d() {
  static const std::vector<RowStages> rows = {
      {Variant::FftOpt,
       "fftopt-2d",
       {"fft-x-trunc", "fft-y-trunc", "cgemm", "ifft-y-pad", "ifft-x-pad"}},
      {Variant::FusedFftGemm,
       "fused-fft-gemm-2d",
       {"fft-x-trunc", "fused-fft-cgemm", "ifft-y-pad", "ifft-x-pad"}},
      {Variant::FusedGemmIfft,
       "fused-gemm-ifft-2d",
       {"fft-x-trunc", "fft-y-trunc", "fused-cgemm-ifft", "ifft-x-pad"}},
      {Variant::FullyFused,
       "fully-fused-2d",
       {"fft-x-trunc", "fused-fft-cgemm-ifft", "ifft-x-pad"}},
  };
  return rows;
}

trace::PipelineCounters run_lane_2d(Variant var, const Spectral2dProblem& p, bool real) {
  const auto w = random_signal(p.weight_elems(), 3013u);
  auto pipe = make_pipeline2d(var, p);
  if (real) {
    const auto u = random_reals(p.input_elems(), 3011u);
    std::vector<float> v(p.output_elems());
    pipe->run_batched_real(u, w, v, p.batch);
  } else {
    const auto u = random_signal(p.input_elems(), 3011u);
    std::vector<c32> v(p.output_elems());
    pipe->run_batched(u, w, v, p.batch);
  }
  return pipe->counters();
}

TEST_P(CounterLaws2d, StageNamesAndLaunchesEveryRowBothLanes) {
  const auto& p = GetParam();
  for (const bool real : {false, true}) {
    for (const auto& row : rows_2d()) expect_stages(run_lane_2d(row.variant, p, real), row, real);
  }
}

TEST_P(CounterLaws2d, FullyFusedRealLaneBytesFormula) {
  const auto& p = GetParam();
  const auto t = run_lane_2d(Variant::FullyFused, p, true).total();
  EXPECT_EQ(t.bytes_read, p.input_elems() * sizeof(float) + p.weight_elems() * sizeof(c32));
  EXPECT_EQ(t.bytes_written, p.output_elems() * sizeof(float));
  EXPECT_EQ(t.kernel_launches, 3u);
}

TEST_P(CounterLaws2d, FlopsEveryRowBothLanes) {
  // X stages, then the Y chain over the kept x-rows.  The real lane's X
  // stages run one full-length packed transform per column pair plus an
  // 8-FLOP-per-bin untangle per column, and keep modes_x/2+1 x-rows.
  const auto& p = GetParam();
  const std::uint64_t B = p.batch;
  const std::uint64_t K = p.hidden;
  const std::uint64_t O = p.out_dim;
  const std::uint64_t NY = p.ny;
  for (const bool real : {false, true}) {
    const std::uint64_t mx = real ? p.modes_x / 2 + 1 : p.modes_x;
    const std::uint64_t x_fwd = real ? (NY / 2) * fft::count_full_ops(p.nx).flops() + NY * 8 * mx
                                     : NY * fft::count_pruned_ops(p.nx, mx, p.nx).flops();
    const std::uint64_t x_inv = real ? x_fwd
                                     : NY * fft::count_pruned_ops(p.nx, p.nx, mx).flops();
    const std::uint64_t expect =
        B * K * x_fwd + B * K * mx * fft::count_pruned_ops(p.ny, p.modes_y, p.ny).flops() +
        trace::cgemm_flops(B * mx * p.modes_y, O, K) +
        B * O * mx * fft::count_pruned_ops(p.ny, p.ny, p.modes_y).flops() + B * O * x_inv;
    for (const auto& row : rows_2d()) {
      EXPECT_EQ(run_lane_2d(row.variant, p, real).total().flops, expect)
          << row.counters << (real ? " (real lane)" : " (complex lane)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, CounterLaws2d,
                         ::testing::Values(Spectral2dProblem{1, 8, 8, 16, 16, 4, 4},
                                           Spectral2dProblem{2, 16, 8, 32, 16, 8, 8},
                                           Spectral2dProblem{1, 8, 16, 16, 32, 16, 8},
                                           Spectral2dProblem{2, 8, 8, 16, 16, 16, 16}));

// ------------------------------------------------- batched serving entries
//
// The serving layer coalesces independent requests into micro-batches, so
// each request's output must be bitwise-invariant to (a) the size of the
// batch it rides in ("linearity in the batch dimension": running a prefix
// equals the prefix of a full run) and (b) its position in the batch.  Any
// cross-request state leak in a pipeline breaks one of these.

bool same_bits(std::span<const c32> a, std::span<const c32> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(c32)) == 0;
}

TEST(BatchedEntry1d, EachRequestBitwiseInvariantToBatchCompositionAllVariants) {
  const Spectral1dProblem p{4, 8, 6, 64, 16};
  const auto u = random_signal(p.input_elems(), 4001u);
  const auto w = random_signal(p.weight_elems(), 4003u);
  const std::size_t in_stride = p.hidden * p.n;
  const std::size_t out_stride = p.out_dim * p.n;
  const std::span<const c32> uspan{u};

  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline1d(var, p);
    std::vector<c32> full(p.output_elems());
    pipe->run_batched(u, w, full, p.batch);

    // Prefix runs equal prefixes of the full run (batch-dimension linearity).
    for (std::size_t b = 1; b < p.batch; ++b) {
      std::vector<c32> prefix(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, prefix, b);
      EXPECT_TRUE(same_bits(prefix, std::span<const c32>(full).first(b * out_stride)))
          << variant_name(var) << " prefix batch " << b;
    }

    // Each request alone reproduces its slice (position invariance).
    for (std::size_t b = 0; b < p.batch; ++b) {
      std::vector<c32> one(out_stride);
      pipe->run_batched(uspan.subspan(b * in_stride, in_stride), w, one, 1);
      EXPECT_TRUE(same_bits(
          one, std::span<const c32>(full).subspan(b * out_stride, out_stride)))
          << variant_name(var) << " request " << b;
    }
  }
}

TEST(BatchedEntry1d, PermutedBatchPermutesOutputsBitwise) {
  const Spectral1dProblem p{3, 8, 8, 64, 16};
  const auto u = random_signal(p.input_elems(), 4011u);
  const auto w = random_signal(p.weight_elems(), 4013u);
  const std::size_t in_stride = p.hidden * p.n;
  const std::size_t out_stride = p.out_dim * p.n;
  const std::size_t perm[] = {2, 0, 1};

  auto pipe = make_pipeline1d(Variant::FullyFused, p);
  std::vector<c32> base(p.output_elems());
  pipe->run_batched(u, w, base, p.batch);

  std::vector<c32> u_perm(p.input_elems());
  for (std::size_t b = 0; b < p.batch; ++b) {
    std::memcpy(u_perm.data() + b * in_stride, u.data() + perm[b] * in_stride,
                in_stride * sizeof(c32));
  }
  std::vector<c32> out_perm(p.output_elems());
  pipe->run_batched(u_perm, w, out_perm, p.batch);
  for (std::size_t b = 0; b < p.batch; ++b) {
    EXPECT_TRUE(same_bits(
        std::span<const c32>(out_perm).subspan(b * out_stride, out_stride),
        std::span<const c32>(base).subspan(perm[b] * out_stride, out_stride)))
        << "slot " << b;
  }
}

TEST(BatchedEntry1d, OverCapacityThrowsAndZeroIsANoOp) {
  const Spectral1dProblem p{2, 8, 8, 32, 8};
  const auto u = random_signal(p.input_elems(), 4021u);
  const auto w = random_signal(p.weight_elems(), 4023u);
  std::vector<c32> v(p.output_elems());
  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline1d(var, p);
    EXPECT_THROW(pipe->run_batched(u, w, v, p.batch + 1), std::invalid_argument)
        << variant_name(var);
    pipe->run_batched(u, w, v, 0);  // must not touch v or crash
    EXPECT_TRUE(pipe->counters().stages().empty()) << variant_name(var);
  }
}

TEST(BatchedEntry2d, EachRequestBitwiseInvariantToBatchCompositionAllVariants) {
  const Spectral2dProblem p{3, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 4031u);
  const auto w = random_signal(p.weight_elems(), 4033u);
  const std::size_t in_stride = p.hidden * p.nx * p.ny;
  const std::size_t out_stride = p.out_dim * p.nx * p.ny;
  const std::span<const c32> uspan{u};

  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline2d(var, p);
    std::vector<c32> full(p.output_elems());
    pipe->run_batched(u, w, full, p.batch);

    for (std::size_t b = 1; b < p.batch; ++b) {
      std::vector<c32> prefix(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, prefix, b);
      EXPECT_TRUE(same_bits(prefix, std::span<const c32>(full).first(b * out_stride)))
          << variant_name(var) << " prefix batch " << b;
    }
    for (std::size_t b = 0; b < p.batch; ++b) {
      std::vector<c32> one(out_stride);
      pipe->run_batched(uspan.subspan(b * in_stride, in_stride), w, one, 1);
      EXPECT_TRUE(same_bits(
          one, std::span<const c32>(full).subspan(b * out_stride, out_stride)))
          << variant_name(var) << " request " << b;
    }
  }
}

TEST(BatchedEntry2d, CountersScaleWithTheMicroBatch) {
  // The counter formulas must describe the micro-batch actually executed,
  // not the planned capacity, or serving telemetry over-reports traffic.
  const Spectral2dProblem p{4, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 4041u);
  const auto w = random_signal(p.weight_elems(), 4043u);
  auto pipe = make_pipeline2d(Variant::FullyFused, p);

  std::vector<c32> v(p.output_elems());
  pipe->run_batched(u, w, v, p.batch);
  const auto full = pipe->counters().total();

  const std::size_t half = p.batch / 2;
  pipe->run_batched(std::span<const c32>(u).first(half * p.hidden * p.nx * p.ny), w,
                    std::span<c32>(v).first(half * p.out_dim * p.nx * p.ny), half);
  const auto part = pipe->counters().total();

  // Input/output traffic halves exactly; the shared weight read does not.
  const std::uint64_t w_bytes = p.weight_elems() * sizeof(c32);
  EXPECT_EQ(part.bytes_read - w_bytes, (full.bytes_read - w_bytes) / 2);
  EXPECT_EQ(part.bytes_written, full.bytes_written / 2);
  EXPECT_EQ(part.flops, full.flops / 2);
}

}  // namespace
}  // namespace turbofno::fused
