// Batched 2D FFT with per-axis truncation / zero padding.
//
// Layout convention (matches the FNO tensors): a 2D field is [DimX, DimY]
// row-major, DimY contiguous.  The 2D transform is two 1D stages:
//
//   stage 1: FFT along X with output truncation to keep_x rows — the
//            paper's "first FFT stage along the width" which writes only
//            the dimX/DimX fraction back (Fig 4);
//   stage 2: FFT along Y (contiguous) on the surviving keep_x rows with
//            output truncation to keep_y bins.
//
// Inverse runs the stages in the opposite order with zero-padded inputs.
//
// The X stage never transposes a column into a contiguous signal: it
// copies blocks of 8 adjacent columns (one cache line per field row) into
// [nx][8] scratch and runs the Stockham passes across the block, so each
// SIMD vector carries several columns and every pass runs full-width
// (FftPlan::execute_blocked; the Y stages run the same engine on blocks of
// 8 rows).  Only the kept rows leave the block (forward) and only
// the stored rows enter it (inverse), so no transform reads a column with
// stride DimY and no padded row is ever read from memory.
//
// On top of the whole-field X stage, this header exposes the tile-granular
// producer/consumer pair (fft2d_x_stage_to_tiles / _from_tiles) that the
// fused 2D middle stages are built on: instead of materializing the
// x-major [keep_x, ny] intermediate, the X stage hands each post-transform
// column slab to the caller as a contiguous y-major [slab, keep_x] row
// block (and symmetrically reads such blocks on the inverse side); these
// two transposes of the kept / stored rows are the only ones left.  The
// fused pipelines point these blocks straight at their cache-resident
// middle-stage staging, so the full [B*K*mx*ny] intermediate is never
// written or re-read.  FftPlan2d uses the same idea per field (see
// FftPlan2d::execute for when it does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "fft/plan.hpp"
#include "tensor/complex.hpp"

namespace turbofno::fft {

/// Applies a 1D plan along the X (row) axis of `fields` row-major fields
/// with DimY-contiguous layout: `in` holds fields x [nonzero_or_n, ny]
/// and `out` receives fields x [keep_or_n, ny]; each of the ny columns of a
/// field is one transform.  Used by FftPlan2d's two-pass schedule; in and
/// out must not overlap.
void fft2d_x_stage(const FftPlan& plan, const c32* in, c32* out, std::size_t fields,
                   std::size_t ny);

/// Destination resolver for the tile-producing X stage: returns the buffer
/// receiving the y-major row block of columns [y0, y0+g) of field `f`.
/// Row r of the block holds the keep_or_n() spectrum of column y0+r,
/// contiguous; block rows are packed keep_or_n() elements apart.
using XStageTileDst = std::function<c32*(std::size_t f, std::size_t y0, std::size_t g)>;

/// Source resolver for the tile-consuming inverse X stage: returns the
/// y-major row block holding the nonzero_or_n()-element spectra of columns
/// [y0, y0+g) of field `f`.  Row r is contiguous and rows are packed
/// nonzero_or_n() elements apart — NOT keep_or_n(): for a zero-padding
/// inverse plan the stored block rows are just the nonzero prefixes.
using XStageTileSrc =
    std::function<const c32*(std::size_t f, std::size_t y0, std::size_t g)>;

/// Per-slab hook of the tile X stages, called once per (item, column slab)
/// task on the worker running it (a hooked stage's task covers every
/// channel of one item).  `rows` holds the slab's rows of all the
/// item's channels, dense [chans][nrows][g]: channel c's row x starts at
/// rows + (c * nrows + x) * g, where nrows is the plan's nonzero_or_n()
/// (forward input) or keep_or_n() (inverse output), and g <= kBlockCols
/// columns start at column y0.  A gather hook fills them and the forward
/// stage transforms them instead of reading its input fields; an epilogue
/// hook receives the inverse stage's output instead of its output fields
/// (it may overwrite the rows).  T is c32, or float on the real lane
/// (real2d.hpp), whose nrows is nx and whose g counts float columns.
template <class T>
using XSlabHook = std::function<void(std::size_t item, std::size_t y0, std::size_t g, T* rows)>;

/// Tile-granular X stage (producer half): transforms every column of the
/// `items` x `chans` fields of [nonzero_or_n, ny] input (field f = item *
/// chans + channel), but instead of transposing the spectra back into an
/// x-major field, writes each column slab's rows straight into the
/// caller's y-major destination blocks.  When the destination is
/// cache-resident staging this skips the full intermediate write that
/// fft2d_x_stage would do.  With a `gather` hook a task runs every channel
/// of one item over one slab, its input rows come from the hook, and `in`
/// is not read (it may be null).  The spectra are bitwise-identical to
/// fft2d_x_stage's.
void fft2d_x_stage_to_tiles(const FftPlan& plan, const c32* in, std::size_t items,
                            std::size_t chans, std::size_t ny, const XStageTileDst& dst,
                            const XSlabHook<c32>& gather = {});

/// Tile-granular X stage (consumer half): the inverse of _to_tiles.  Reads
/// each column slab's spectra from the caller's y-major source blocks,
/// transforms them, and writes the resulting columns into the x-major
/// `out` fields ([keep_or_n, ny] each), bitwise-identical to fft2d_x_stage
/// on the same spectra in x-major order.  With an `epilogue` hook a task
/// runs every channel of one item over one slab and hands the output rows
/// to the hook instead, and `out` is not written (it may be null).
void fft2d_x_stage_from_tiles(const FftPlan& plan, const XStageTileSrc& src, c32* out,
                              std::size_t items, std::size_t chans, std::size_t ny,
                              const XSlabHook<c32>& epilogue = {});

struct Plan2dDesc {
  std::size_t nx = 0;       // DimX
  std::size_t ny = 0;       // DimY
  Direction dir = Direction::Forward;
  std::size_t keep_x = 0;   // forward: rows kept; inverse: nonzero rows
  std::size_t keep_y = 0;   // forward: bins kept;  inverse: nonzero bins
  bool scale_inverse = true;

  [[nodiscard]] std::size_t keep_x_or_nx() const noexcept { return keep_x == 0 ? nx : keep_x; }
  [[nodiscard]] std::size_t keep_y_or_ny() const noexcept { return keep_y == 0 ? ny : keep_y; }
};

class FftPlan2d {
 public:
  /// Throws std::invalid_argument unless nx and ny are powers of two >= 2
  /// and keep_x <= nx, keep_y <= ny (0 keeps the full axis, per Plan2dDesc).
  /// Validated here — before the per-axis plans are derived — so degenerate
  /// descriptors (nx == 1, keep > n) fail with a 2D-level message instead
  /// of surfacing from a half-built axis plan, and the tile API above can
  /// never be handed an empty or undersized slab.
  explicit FftPlan2d(Plan2dDesc desc);

  [[nodiscard]] const Plan2dDesc& desc() const noexcept { return desc_; }

  /// Forward: in = batch x [nx, ny] dense fields, out = batch x [keep_x, keep_y].
  /// Inverse: in = batch x [keep_x, keep_y] spectra, out = batch x [nx, ny].
  void execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const;

  [[nodiscard]] std::size_t in_field_elems() const noexcept;
  [[nodiscard]] std::size_t out_field_elems() const noexcept;

  /// Pruned real FLOPs per field.
  [[nodiscard]] std::uint64_t flops_per_field() const noexcept;

 private:
  void execute_fused(std::span<const c32> in, std::span<c32> out, std::size_t batch) const;

  Plan2dDesc desc_;
  FftPlan along_x_;  // strided stage over DimX
  FftPlan along_y_;  // contiguous stage over DimY
};

}  // namespace turbofno::fft
