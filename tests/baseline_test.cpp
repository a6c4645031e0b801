// Baseline pipeline internals: the memcopy stages (1D spectra are their
// nx = kx = 1 case) and counter accounting.
#include <gtest/gtest.h>

#include <vector>

#include "baseline/memcopy_stages.hpp"
#include "baseline/pipeline1d.hpp"
#include "test_util.hpp"

namespace turbofno::baseline {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_signal;

TEST(TruncateCopy2d, KeepsLowPrefixPerRowWhenNxIsOne) {
  const std::size_t rows = 3;
  const std::size_t n = 8;
  const std::size_t keep = 3;
  const auto src = random_signal(rows * n, 701u);
  std::vector<c32> dst(rows * keep, c32{});
  trace::StageCounters sc{"t", 0, 0, 0, 0, 0.0};
  truncate_copy_2d(src, dst, rows, 1, n, 1, keep, &sc);  // 1D: nx = kx = 1
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < keep; ++j) {
      EXPECT_EQ(dst[r * keep + j].re, src[r * n + j].re);
    }
  }
  EXPECT_EQ(sc.bytes_read, rows * keep * sizeof(c32));
  EXPECT_EQ(sc.bytes_written, rows * keep * sizeof(c32));
  EXPECT_EQ(sc.kernel_launches, 1u);
}

TEST(PadCopy2d, InsertsAndZeroFillsWhenNxIsOne) {
  const std::size_t rows = 2;
  const std::size_t keep = 3;
  const std::size_t n = 8;
  const auto src = random_signal(rows * keep, 709u);
  std::vector<c32> dst(rows * n, c32{9.0f, 9.0f});
  trace::StageCounters sc{"p", 0, 0, 0, 0, 0.0};
  pad_copy_2d(src, dst, rows, 1, keep, 1, n, &sc);  // 1D: nx = kx = 1
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < keep; ++j) EXPECT_EQ(dst[r * n + j].re, src[r * keep + j].re);
    for (std::size_t j = keep; j < n; ++j) {
      EXPECT_EQ(dst[r * n + j].re, 0.0f);
      EXPECT_EQ(dst[r * n + j].im, 0.0f);
    }
  }
  EXPECT_EQ(sc.bytes_read, rows * keep * sizeof(c32));
  EXPECT_EQ(sc.bytes_written, rows * n * sizeof(c32));  // zeros count as writes
  EXPECT_EQ(sc.kernel_launches, 1u);
}

TEST(TruncateCopy2d, KeepsLowCornerBlock) {
  const std::size_t nx = 4;
  const std::size_t ny = 6;
  const std::size_t kx = 2;
  const std::size_t ky = 3;
  const auto src = random_signal(nx * ny, 719u);
  std::vector<c32> dst(kx * ky, c32{});
  truncate_copy_2d(src, dst, 1, nx, ny, kx, ky, nullptr);
  for (std::size_t x = 0; x < kx; ++x) {
    for (std::size_t y = 0; y < ky; ++y) {
      EXPECT_EQ(dst[x * ky + y].re, src[x * ny + y].re);
    }
  }
}

TEST(PadCopy2d, ZeroesOutsideCorner) {
  const std::size_t nx = 4;
  const std::size_t ny = 4;
  const std::size_t kx = 2;
  const std::size_t ky = 2;
  const auto src = random_signal(kx * ky, 727u);
  std::vector<c32> dst(nx * ny, c32{5.0f, 5.0f});
  pad_copy_2d(src, dst, 1, kx, ky, nx, ny, nullptr);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) {
      if (x < kx && y < ky) {
        EXPECT_EQ(dst[x * ny + y].re, src[x * ky + y].re);
      } else {
        EXPECT_EQ(dst[x * ny + y].re, 0.0f);
      }
    }
  }
}

TEST(TruncPadRoundTrip, IsIdentityOnKeptRegion) {
  const std::size_t rows = 4;
  const std::size_t n = 16;
  const std::size_t keep = 5;
  const auto spec = random_signal(rows * keep, 733u);
  std::vector<c32> padded(rows * n);
  pad_copy_2d(spec, padded, rows, 1, keep, 1, n, nullptr);
  std::vector<c32> back(rows * keep);
  truncate_copy_2d(padded, back, rows, 1, n, 1, keep, nullptr);
  EXPECT_EQ(max_err(back, spec), 0.0);
}

TEST(BaselinePipeline, RecordsFiveStagesWithFullTraffic) {
  const Spectral1dProblem prob{2, 8, 8, 64, 16};
  const auto u = random_signal(prob.input_elems(), 739u);
  const auto w = random_signal(prob.weight_elems(), 743u);
  std::vector<c32> v(prob.output_elems());
  BaselinePipeline1d pipe(prob);
  pipe.run(u, w, v);
  EXPECT_EQ(pipe.name(), "PyTorch");
  EXPECT_EQ(pipe.counters().name(), "pytorch-1d");
  const auto& stages = pipe.counters().stages();
  ASSERT_EQ(stages.size(), 5u);
  EXPECT_EQ(stages[0].name, "fft");
  EXPECT_EQ(stages[1].name, "truncate-copy");
  EXPECT_EQ(stages[2].name, "cgemm");
  EXPECT_EQ(stages[3].name, "pad-copy");
  EXPECT_EQ(stages[4].name, "ifft");
  // Baseline FFT writes the FULL spectrum (no built-in truncation).
  EXPECT_EQ(stages[0].bytes_written,
            prob.batch * prob.hidden * prob.n * sizeof(c32));
  // Each stage is one kernel launch.
  for (const auto& s : pipe.counters().stages()) EXPECT_EQ(s.kernel_launches, 1u);
}

TEST(BaselinePipeline, CountersResetBetweenRuns) {
  const Spectral1dProblem prob{1, 8, 8, 32, 8};
  const auto u = random_signal(prob.input_elems(), 751u);
  const auto w = random_signal(prob.weight_elems(), 757u);
  std::vector<c32> v(prob.output_elems());
  BaselinePipeline1d pipe(prob);
  pipe.run(u, w, v);
  const auto first = pipe.counters().total().bytes_total();
  pipe.run(u, w, v);
  EXPECT_EQ(pipe.counters().total().bytes_total(), first) << "counters must not accumulate";
}

}  // namespace
}  // namespace turbofno::baseline
