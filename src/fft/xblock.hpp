// Column-block geometry and kernel shared by FftPlan::execute_blocked
// (plan.cpp) and the real lane's 2D X stages (real2d.cpp).  Internal to
// src/fft.
//
// A 2D field is [DimX, DimY] row-major, so W adjacent columns are W
// contiguous elements of every field row.  A block copies such columns
// (or W contiguous signals of a y-major tile) into [n][W] rows and runs
// the Stockham passes across them (stockham_columns): one SIMD vector
// holds element x of several signals, so every pass runs at full width and
// no column is ever transposed into a contiguous signal first (FFTW's
// "vector loop over howmany").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "fft/plan.hpp"
#include "fft/stockham.hpp"
#include "tensor/complex.hpp"
#include "tensor/transpose.hpp"

namespace turbofno::fft::xblock {

/// X-stage task geometry: tasks enumerate (unit, slab) pairs, where a
/// unit is one field, or every channel of one item (the hooked stages of
/// fft2d.hpp).  A field row's slab is 16 c32 columns (two column blocks)
/// or 16 float columns (8 column pairs); an item's complex slab is one
/// column block.
struct SlabGrid {
  std::size_t cols = 0;            // columns per slab (<= the slab width)
  std::size_t slabs_per_unit = 0;  // ceil(ny / cols)
  std::size_t grain = 0;           // tasks per parallel chunk
};

/// Slabs of `width` columns over ny columns, for tasks of `chans`
/// channels each.
inline SlabGrid slab_grid(std::size_t ny, std::size_t width, std::size_t chans) noexcept {
  SlabGrid g;
  g.cols = std::min(width, ny);  // ny is a power of two: even unless 1
  g.slabs_per_unit = (ny + g.cols - 1) / g.cols;
  g.grain = std::max<std::size_t>(1, 64 / (g.cols * chans));
  return g;
}

/// One row of a block.  A full block's row has a fixed size, so it compiles
/// to two vector moves instead of a memmove call per row.
inline void copy_row(const c32* src, std::size_t g, c32* dst) noexcept {
  if (g == kBlockCols) {
    std::memcpy(dst, src, kBlockCols * sizeof(c32));
  } else {
    std::copy_n(src, g, dst);
  }
}

/// Copies `rows` rows of a `g`-column block into dense [rows][g] rows.
inline void gather(const c32* src, Layout l, std::size_t rows, std::size_t g,
                   c32* blk) noexcept {
  if (l.col_stride == 1) {
    for (std::size_t x = 0; x < rows; ++x) copy_row(src + x * l.row_stride, g, blk + x * g);
  } else {
    simd::transpose(src, l.col_stride, blk, g, g, rows);
  }
}

/// Inverse of gather: dense [rows][g] rows out to the caller's layout.
inline void scatter(const c32* blk, std::size_t rows, std::size_t g, c32* dst,
                    Layout l) noexcept {
  if (l.col_stride == 1) {
    for (std::size_t x = 0; x < rows; ++x) copy_row(blk + x * g, g, dst + x * l.row_stride);
  } else {
    simd::transpose(blk, g, dst, l.col_stride, rows, g);
  }
}

/// Asks for the `rows` field rows of the block kBlockCols columns right of
/// `blk` to be fetched into L2, so their memory latency overlaps the
/// current block's passes.  The next block may lie past the caller's
/// columns (or buffer), so its addresses are formed as integers: a
/// prefetch is only a hint and never faults.  Tile blocks are small and
/// contiguous and need no help.
inline void prefetch_next(const c32* blk, Layout l, std::size_t rows) noexcept {
  if (l.col_stride != 1) return;
  const std::uintptr_t next = reinterpret_cast<std::uintptr_t>(blk) + kBlockCols * sizeof(c32);
  for (std::size_t x = 0; x < rows; ++x) {
    __builtin_prefetch(reinterpret_cast<const void*>(next + x * l.row_stride * sizeof(c32)), 0,
                       2);
  }
}

/// Runs an n-point `plan` down `g` <= kBlockCols columns held as [n][g]
/// rows at the start of `buf` (plan.blocked_scratch_elems()), whose first
/// nonzero_or_n() rows the caller has loaded; the padded rows are zeroed
/// here.  Returns the [n][g] result rows (scaled when the plan scales its
/// inverse), of which the first keep_or_n() are the plan's output.
inline const c32* transform(const FftPlan& plan, std::size_t g, std::span<c32> buf) {
  const PlanDesc& d = plan.desc();
  c32* a = buf.data();
  std::fill(a + d.nonzero_or_n() * g, a + d.n * g, c32{});
  return stockham_columns(a, a + d.n * g, d.n, g, d.dir == Direction::Inverse,
                          d.scale_inverse);
}

}  // namespace turbofno::fft::xblock
