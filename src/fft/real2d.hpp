// Real-input X stage for the 2D pipelines (R2C forward / C2R inverse).
//
// A 2D field is [DimX, DimY] row-major with real samples; the X-axis
// transforms are real-input, so adjacent y-column pairs ride one complex
// transform (the classic two-for-one trick): columns (2p, 2p+1) of the
// float field are exactly the re/im lanes of a c32 column at pair index p,
// one full nx-point C2C transform produces the packed spectrum Z, and an
// O(nx) untangle splits it into the two columns' spectra
//
//   A[k] = (Z[k] + conj(Z[(nx-k) % nx])) / 2        (column 2p)
//   B[k] = (Z[k] - conj(Z[(nx-k) % nx])) / (2i)     (column 2p+1)
//
// of which only the first keep_x bins survive (conjugate-even symmetry
// makes bins above nx/2 redundant; the fused real pipelines keep
// keep_x = modes_x/2 + 1).  The inverse rebuilds Z from two stored
// prefixes — Hermitian-extending each and projecting the DC (and Nyquist,
// when stored) bins real — and one full inverse transform scatters both
// columns at once.
//
// The transforms run on column blocks (fft/xblock.hpp): the float field
// read as c32 is [nx][ny/2] column pairs, 8 adjacent pairs (16 float
// columns) go through one column-vectorized C2C transform, and the
// untangle / retangle run vertically across the block.
//
// Layout contracts mirror fft/fft2d.hpp: the whole-field entry points
// produce/consume the x-major [keep_x, ny] intermediate, and the tile
// entry points speak the same XStageTileDst/Src protocol the fused 2D
// middle stages are built on (block row r holds the keep_x-bin spectrum of
// column y0 + r, rows packed keep_x apart).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fft/fft2d.hpp"
#include "tensor/complex.hpp"

namespace turbofno::fft {

// Every X stage runs full-length nx-point C2C transforms: `fwd_x` is the
// {nx, Forward} plan and `inv_x` the {nx, Inverse} one (any other plan is
// rejected), so a pipeline that runs a stage every forward looks its plan
// up once.  nx and ny must be powers of two >= 4 resp. >= 2, and keep_x /
// nonzero_x lie in [1, nx/2 + 1].

/// Forward whole-field real X stage: `in` holds `fields` x [nx, ny] real
/// fields, `out` receives fields x [keep_x, ny] spectra (x-major).
void rfft2d_x_stage(const FftPlan& fwd_x, std::size_t keep_x, const float* in, c32* out,
                    std::size_t fields, std::size_t ny);
/// The same, looking up the {nx, Forward} plan in the plan cache.
void rfft2d_x_stage(std::size_t nx, std::size_t keep_x, const float* in, c32* out,
                    std::size_t fields, std::size_t ny);

/// Inverse whole-field real X stage: `in` holds fields x [nonzero_x, ny]
/// spectra (bins [nonzero_x, nx/2] implicit zeros, upper half Hermitian),
/// `out` receives fields x [nx, ny] real fields.
void irfft2d_x_stage(const FftPlan& inv_x, std::size_t nonzero_x, const c32* in, float* out,
                     std::size_t fields, std::size_t ny);
/// The same, looking up the {nx, Inverse} plan in the plan cache.
void irfft2d_x_stage(std::size_t nx, std::size_t nonzero_x, const c32* in, float* out,
                     std::size_t fields, std::size_t ny);

/// FLOPs per [nx, ny] field of a real X stage keeping (or reading) keep_x
/// bins, either direction: one full nx-point C2C transform per column pair
/// plus an 8-flop untangle (retangle) per kept bin and column.
std::uint64_t rfft2d_x_stage_flops(std::size_t nx, std::size_t ny, std::size_t keep_x) noexcept;

/// Tile-granular forward real X stage: like fft2d_x_stage_to_tiles over
/// `items` x `chans` fields, but the input fields are real and the y-major
/// destination blocks hold keep_x-bin half-spectra per column.  y0 and g
/// delivered to `dst` are always even (columns pair up), so resolvers may
/// assume whole pairs.  A `gather` hook fills each task's [chans][nx][g]
/// float rows in place of reading `in` (XSlabHook<float>).
void rfft2d_x_stage_to_tiles(const FftPlan& fwd_x, std::size_t keep_x, const float* in,
                             std::size_t items, std::size_t chans, std::size_t ny,
                             const XStageTileDst& dst, const XSlabHook<float>& gather = {});

/// Tile-granular inverse real X stage: reads y-major blocks of
/// nonzero_x-bin half-spectra per column and scatters real columns into the
/// x-major [nx, ny] output fields, or, with an `epilogue` hook, into each
/// task's [chans][nx][g] float rows handed to the hook.
void irfft2d_x_stage_from_tiles(const FftPlan& inv_x, std::size_t nonzero_x,
                                const XStageTileSrc& src, float* out, std::size_t items,
                                std::size_t chans, std::size_t ny,
                                const XSlabHook<float>& epilogue = {});

}  // namespace turbofno::fft
