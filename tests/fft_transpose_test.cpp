// The SIMD 4x4 complex transpose, the cache-blocked transpose built on it,
// and the 2D FFT schedules: parity against the naive transpose /
// double-precision reference DFT on both backends, one column-block X
// kernel behind every X-stage entry point and FftPlan2d schedule, and the
// steady-state no-allocation property of the scratch arena they share.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/reference.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/transpose.hpp"
#include "test_util.hpp"

namespace turbofno {
namespace {

using testing::fft_tol;
using testing::max_err;
using testing::random_signal;
using testing::same_bits;
using testing::y_major;

// ------------------------------------------------------------- transpose ops

template <class B>
void check_transpose(std::size_t rows, std::size_t cols, std::size_t src_pad,
                     std::size_t dst_pad) {
  const std::size_t ss = cols + src_pad;
  const std::size_t ds = rows + dst_pad;
  const auto src = random_signal(rows * ss, 501u + static_cast<unsigned>(rows * 31 + cols));
  const c32 sentinel{1e30f, -1e30f};
  std::vector<c32> dst(cols * ds, sentinel);

  simd::transpose<B>(src.data(), ss, dst.data(), ds, rows, cols);

  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const c32 got = dst[j * ds + i];
      const c32 want = src[i * ss + j];
      ASSERT_EQ(got.re, want.re) << "rows=" << rows << " cols=" << cols << " @" << i << "," << j;
      ASSERT_EQ(got.im, want.im) << "rows=" << rows << " cols=" << cols << " @" << i << "," << j;
    }
  }
  // Stride padding must be untouched (the 2D scatter writes into live
  // neighboring columns of the output field).
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = rows; i < ds; ++i) {
      ASSERT_EQ(dst[j * ds + i].re, sentinel.re) << "padding clobbered at " << i << "," << j;
    }
  }
}

template <class B>
void check_transpose_shapes() {
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 1},
                                                        {2, 2},
                                                        {2, 7},
                                                        {3, 5},
                                                        {4, 4},
                                                        {5, 4},
                                                        {8, 8},
                                                        {13, 4},
                                                        {4, 13},
                                                        {16, 16},
                                                        {33, 17},
                                                        {64, 33},
                                                        {40, 72}}) {
    check_transpose<B>(rows, cols, 0, 0);
    check_transpose<B>(rows, cols, 3, 5);  // strides beyond the dense dims
  }
}

TEST(Transpose, ScalarBackendAllShapes) { check_transpose_shapes<simd::ScalarBackend>(); }

TEST(Transpose, ActiveBackendAllShapes) { check_transpose_shapes<simd::Active>(); }

#if TURBOFNO_SIMD_HAVE_AVX2
TEST(Transpose, Avx2TileMatchesScalarTile) {
  const auto src = random_signal(16, 601u);
  std::vector<c32> scalar_dst(16), simd_dst(16);
  simd::transpose4x4<simd::ScalarBackend>(src.data(), 4, scalar_dst.data(), 4);
  simd::transpose4x4<simd::Avx2Backend>(src.data(), 4, simd_dst.data(), 4);
  EXPECT_EQ(0, std::memcmp(scalar_dst.data(), simd_dst.data(), 16 * sizeof(c32)));
}

TEST(Transpose, Avx2ZipPrimitives) {
  using B = simd::Avx2Backend;
  const auto in = random_signal(8, 602u);
  const auto a = B::pload(in.data());
  const auto b = B::pload(in.data() + 4);
  c32 out[4];

  const auto expect = [&out](c32 e0, c32 e1, c32 e2, c32 e3) {
    const c32 want[4] = {e0, e1, e2, e3};
    EXPECT_EQ(0, std::memcmp(out, want, sizeof want));
  };
  B::pstore(out, B::pzip_lo(a, b));
  expect(in[0], in[4], in[1], in[5]);
  B::pstore(out, B::pzip_hi(a, b));
  expect(in[2], in[6], in[3], in[7]);
  B::pstore(out, B::pzip_pair_lo(a, b));
  expect(in[0], in[1], in[4], in[5]);
  B::pstore(out, B::pzip_pair_hi(a, b));
  expect(in[2], in[3], in[6], in[7]);
  B::pstore(out, B::pset4(in[3], in[1], in[7], in[2]));
  expect(in[3], in[1], in[7], in[2]);
}
#endif  // TURBOFNO_SIMD_HAVE_AVX2

// ------------------------------------------------- 2D schedule vs reference

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

// Reference 2D transforms in double precision: column DFTs then row DFTs.
// Forward: batch x [nx, ny] -> batch x [kx, ky] (truncated on both axes).
std::vector<c32> reference_forward(std::span<const c32> in, std::size_t batch, std::size_t nx,
                                   std::size_t ny, std::size_t kx, std::size_t ky) {
  std::vector<c32> want(batch * kx * ky), mid(kx * ny), col(nx), colf(kx);
  for (std::size_t b = 0; b < batch; ++b) {
    const c32* field = in.data() + b * nx * ny;
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) col[x] = field[x * ny + y];
      fft::reference_dft(col, colf, nx);
      for (std::size_t x = 0; x < kx; ++x) mid[x * ny + y] = colf[x];
    }
    for (std::size_t x = 0; x < kx; ++x) {
      fft::reference_dft(std::span<const c32>(mid.data() + x * ny, ny),
                         std::span<c32>(want.data() + (b * kx + x) * ky, ky), ny);
    }
  }
  return want;
}

// Inverse: batch x [kx, ky] zero-padded spectra -> batch x [nx, ny].
std::vector<c32> reference_inverse(std::span<const c32> in, std::size_t batch, std::size_t nx,
                                   std::size_t ny, std::size_t kx, std::size_t ky) {
  std::vector<c32> want(batch * nx * ny), mid(kx * ny), col(kx), colt(nx);
  for (std::size_t b = 0; b < batch; ++b) {
    const c32* spec = in.data() + b * kx * ky;
    for (std::size_t x = 0; x < kx; ++x) {
      fft::reference_idft(std::span<const c32>(spec + x * ky, ky),
                          std::span<c32>(mid.data() + x * ny, ny), ny);
    }
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < kx; ++x) col[x] = mid[x * ny + y];
      fft::reference_idft(col, colt, nx);
      for (std::size_t x = 0; x < nx; ++x) want[(b * nx + x) * ny + y] = colt[x];
    }
  }
  return want;
}

struct SchedCase {
  std::size_t nx, ny, kx, ky, batch;
};

class TransposedSchedule : public ::testing::TestWithParam<SchedCase> {};

TEST_P(TransposedSchedule, MatchesReferenceBothDirections) {
  const auto [nx, ny, kx, ky, batch] = GetParam();
  const std::size_t kxe = kx == 0 ? nx : kx;
  const std::size_t kye = ky == 0 ? ny : ky;

  const auto field = random_signal(batch * nx * ny, 701u + static_cast<unsigned>(nx + ny));
  const auto spec = random_signal(batch * kxe * kye, 703u + static_cast<unsigned>(nx + ny));

  std::vector<c32> fwd(batch * kxe * kye), inv(batch * nx * ny);
  make2d(nx, ny, fft::Direction::Forward, kx, ky).execute(field, fwd, batch);
  make2d(nx, ny, fft::Direction::Inverse, kx, ky).execute(spec, inv, batch);

  EXPECT_LT(max_err(fwd, reference_forward(field, batch, nx, ny, kxe, kye)), fft_tol(nx * ny));
  EXPECT_LT(max_err(inv, reference_inverse(spec, batch, nx, ny, kxe, kye)), fft_tol(nx * ny));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposedSchedule,
    ::testing::Values(SchedCase{2, 2, 0, 0, 1},        // below one 4x4 tile
                      SchedCase{2, 64, 0, 0, 2},       // nx not a tile multiple
                      SchedCase{64, 2, 0, 0, 2},       // ny not a tile multiple
                      SchedCase{8, 8, 0, 0, 3},
                      SchedCase{32, 32, 8, 4, 1},      // asymmetric keep
                      SchedCase{16, 64, 4, 16, 3},     // keep + batch
                      SchedCase{64, 16, 16, 4, 2},
                      SchedCase{64, 64, 16, 16, 2},
                      SchedCase{128, 32, 32, 8, 1}));  // ny spans two slabs

TEST(TransposedSchedule, ForwardMatchesReferenceAtTileEdges) {
  // The shapes where the 4x4 tiles degenerate: nx or ny == 2.
  for (const auto& [nx, ny] :
       std::vector<std::pair<std::size_t, std::size_t>>{{2, 2}, {2, 16}, {16, 2}, {4, 32}}) {
    const auto in = random_signal(nx * ny, 709u + static_cast<unsigned>(nx * ny));
    std::vector<c32> out(nx * ny);
    make2d(nx, ny, fft::Direction::Forward).execute(in, out, 1);
    EXPECT_LT(max_err(out, reference_forward(in, 1, nx, ny, nx, ny)), fft_tol(nx * ny))
        << nx << "x" << ny;
  }
}

TEST(TransposedSchedule, RoundTripWithKeepAndBatch) {
  const std::size_t nx = 32, ny = 64, batch = 3;
  const auto in = random_signal(batch * nx * ny, 719u);
  const fft::FftPlan2d fwd = make2d(nx, ny, fft::Direction::Forward);
  const fft::FftPlan2d inv = make2d(nx, ny, fft::Direction::Inverse);
  std::vector<c32> freq(batch * nx * ny), back(batch * nx * ny);
  fwd.execute(in, freq, batch);
  inv.execute(freq, back, batch);
  EXPECT_LT(max_err(back, in), fft_tol(nx * ny));

  // Truncated fwd + padded inv applied twice is the idempotent low-pass
  // projector, per field in the batch.
  const fft::FftPlan2d fwd_t = make2d(nx, ny, fft::Direction::Forward, 8, 12);
  const fft::FftPlan2d inv_t = make2d(nx, ny, fft::Direction::Inverse, 8, 12);
  std::vector<c32> spec(batch * 8 * 12), once(batch * nx * ny), twice(batch * nx * ny);
  fwd_t.execute(in, spec, batch);
  inv_t.execute(spec, once, batch);
  fwd_t.execute(once, spec, batch);
  inv_t.execute(spec, twice, batch);
  EXPECT_LT(max_err(twice, once), 5.0 * fft_tol(nx * ny));
}

// ------------------------------------------ one X kernel for every consumer

// Every 2D consumer runs its X axis through the same column-block kernel:
// the x-major whole-field stage, the tile producer/consumer pair, and both
// FftPlan2d schedules must agree bit for bit, and each against the double
// reference.
struct XKernelCase {
  std::size_t nx, ny, kx, ky;
  bool scale;
};

// Double-reference X stages: each column's first `kx` DFT bins (forward),
// or the zero-padded inverse DFT of its `kx` stored bins.
std::vector<c32> reference_x_stage(const std::vector<c32>& in, std::size_t fields,
                                   std::size_t nx, std::size_t ny, std::size_t kx,
                                   fft::Direction dir, bool scale) {
  const bool fwd = dir == fft::Direction::Forward;
  const std::size_t rows_in = fwd ? nx : kx;
  const std::size_t rows_out = fwd ? kx : nx;
  std::vector<c32> out(fields * rows_out * ny), col(rows_in), res(rows_out);
  for (std::size_t f = 0; f < fields; ++f) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < rows_in; ++x) col[x] = in[(f * rows_in + x) * ny + y];
      if (fwd) {
        fft::reference_dft(col, res, nx);
      } else {
        fft::reference_idft(col, res, nx, scale);
      }
      for (std::size_t x = 0; x < rows_out; ++x) out[(f * rows_out + x) * ny + y] = res[x];
    }
  }
  return out;
}

class OneXKernel : public ::testing::TestWithParam<XKernelCase> {};

TEST_P(OneXKernel, XStagesAreBitwiseAcrossLayoutsAndMatchReference) {
  const auto [nx, ny, kx, ky, scale] = GetParam();
  const std::size_t fields = 3;
  // An unscaled inverse is nx times larger; so is its rounding error.
  const double inv_tol = fft_tol(nx) * (scale ? 1.0 : static_cast<double>(nx));

  const fft::FftPlan fwd({nx, fft::Direction::Forward, kx, 0, scale});
  const auto in = random_signal(fields * nx * ny, 741u + static_cast<unsigned>(nx + ny));
  std::vector<c32> rows(fields * kx * ny), tiles(fields * ny * kx);
  fft::fft2d_x_stage(fwd, in.data(), rows.data(), fields, ny);
  fft::fft2d_x_stage_to_tiles(fwd, in.data(), fields, 1, ny,
                              [&](std::size_t f, std::size_t y0, std::size_t) {
                                return tiles.data() + (f * ny + y0) * kx;
                              });
  EXPECT_TRUE(same_bits(y_major(rows, fields, kx, ny), tiles));
  EXPECT_LT(max_err(rows, reference_x_stage(in, fields, nx, ny, kx, fft::Direction::Forward,
                                            scale)),
            fft_tol(nx));

  const fft::FftPlan inv({nx, fft::Direction::Inverse, 0, kx, scale});
  const auto spec = random_signal(fields * kx * ny, 743u + static_cast<unsigned>(nx + ny));
  const auto spec_tiles = y_major(spec, fields, kx, ny);
  std::vector<c32> from_rows(fields * nx * ny), from_tiles(fields * nx * ny);
  fft::fft2d_x_stage(inv, spec.data(), from_rows.data(), fields, ny);
  fft::fft2d_x_stage_from_tiles(inv,
                                [&](std::size_t f, std::size_t y0, std::size_t) {
                                  return static_cast<const c32*>(spec_tiles.data() +
                                                                 (f * ny + y0) * kx);
                                },
                                from_tiles.data(), fields, 1, ny);
  EXPECT_TRUE(same_bits(from_rows, from_tiles));
  EXPECT_LT(max_err(from_rows, reference_x_stage(spec, fields, nx, ny, kx,
                                                 fft::Direction::Inverse, scale)),
            inv_tol);
}

TEST_P(OneXKernel, BothPlan2dSchedulesAreBitwiseAndMatchReference) {
  const auto [nx, ny, kx, ky, scale] = GetParam();
  const std::size_t batch = 2;
  fft::Plan2dDesc d{nx, ny, fft::Direction::Forward, kx, ky, scale};
  const fft::FftPlan2d fwd(d);
  d.dir = fft::Direction::Inverse;
  const fft::FftPlan2d inv(d);
  const auto field = random_signal(batch * nx * ny, 751u + static_cast<unsigned>(nx + ny));
  const auto spec = random_signal(batch * kx * ky, 753u + static_cast<unsigned>(nx + ny));

  // One thread takes the fused per-field schedule (every shape here keeps
  // its staging tile within budget); more threads than fields force the
  // two-pass schedule.
  const auto run = [&](const fft::FftPlan2d& plan, const std::vector<c32>& in, int threads) {
    runtime::set_thread_count(threads);
    std::vector<c32> out(batch * plan.out_field_elems());
    plan.execute(in, out, batch);
    runtime::set_thread_count(0);
    return out;
  };
  const auto fwd_fused = run(fwd, field, 1);
  const auto inv_fused = run(inv, spec, 1);
  EXPECT_TRUE(same_bits(fwd_fused, run(fwd, field, 3)));
  EXPECT_TRUE(same_bits(inv_fused, run(inv, spec, 3)));

  const double n2 = static_cast<double>(nx * ny);
  EXPECT_LT(max_err(fwd_fused, reference_forward(field, batch, nx, ny, kx, ky)), fft_tol(nx * ny));
  // The double reference scales its inverse; undo that for unscaled plans.
  auto want = reference_inverse(spec, batch, nx, ny, kx, ky);
  if (!scale) {
    for (auto& v : want) v *= static_cast<float>(n2);
  }
  EXPECT_LT(max_err(inv_fused, want), fft_tol(nx * ny) * (scale ? 1.0 : n2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OneXKernel,
    ::testing::Values(XKernelCase{8, 2, 8, 2, true},          // one block narrower than W
                      XKernelCase{16, 4, 4, 2, false},        // narrow block, unscaled
                      XKernelCase{64, 8, 16, 8, true},        // exactly one block
                      XKernelCase{32, 16, 32, 4, false},      // two blocks, one slab
                      XKernelCase{256, 128, 64, 64, true},    // the Figure 19 shape
                      XKernelCase{1024, 16, 256, 8, false},   // long X axis
                      XKernelCase{512, 32, 128, 32, true}));

// --------------------------------------------------------------- scratch use

TEST(ScratchArena, SteadyStateDoesNotGrow) {
  const std::size_t nx = 64, ny = 64, batch = 2;
  const auto in = random_signal(batch * nx * ny, 727u);
  std::vector<c32> out(batch * 16 * 16);
  const fft::FftPlan2d plan = make2d(nx, ny, fft::Direction::Forward, 16, 16);

  plan.execute(in, out, batch);  // warm-up sizes the calling thread's arena
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int i = 0; i < 10; ++i) plan.execute(in, out, batch);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());
}

TEST(ScratchArena, NestedScopesRewind) {
  auto& arena = runtime::tls_scratch();
  const std::size_t before = arena.bytes_reserved();
  {
    const auto outer = arena.scope();
    const auto a = arena.alloc<c32>(1024);
    a[0] = c32{1.0f, 2.0f};
    {
      const auto inner = arena.scope();
      const auto b = arena.alloc<float>(4096);
      b[0] = 3.0f;
    }
    // Inner scope rewound: the next inner-sized alloc reuses the same bytes.
    const auto c = arena.alloc<float>(4096);
    c[0] = 4.0f;
    EXPECT_EQ(a[0].re, 1.0f);  // outer allocation untouched by the rewind
    EXPECT_EQ(a[0].im, 2.0f);
  }
  EXPECT_GE(arena.bytes_reserved(), before);
}

}  // namespace
}  // namespace turbofno
