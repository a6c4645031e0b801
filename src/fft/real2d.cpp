#include "fft/real2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/opcount.hpp"
#include "fft/plan_cache.hpp"
#include "fft/twiddle.hpp"
#include "fft/xblock.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft {

namespace {

void check_real2d(std::size_t nx, std::size_t ny, std::size_t stored) {
  if (nx < 4 || !is_pow2(nx) || !is_pow2(ny)) {
    throw std::invalid_argument("real 2D X stage: nx must be a power of two >= 4, ny >= 2");
  }
  if (stored == 0 || stored > nx / 2 + 1) {
    throw std::invalid_argument("real 2D X stage: keep_x/nonzero_x out of [1, nx/2+1]");
  }
}

// Vertical untangle of gp column pairs: Z holds their packed spectra as
// [nx][gp] rows; A and B receive the first `keep` bins of the even and the
// odd columns' spectra as [keep][gp] rows.  Per element this is the 1D
// RfftPlan untangle; the conjugate mirror is row nx - k of the same pair,
// so every operand is a plain vertical load.
void untangle_rows(const c32* Z, std::size_t nx, std::size_t gp, std::size_t keep, c32* A,
                   c32* B) {
  using V = simd::Active;
  for (std::size_t p = 0; p < gp; ++p) {
    A[p] = c32{Z[p].re, 0.0f};
    B[p] = c32{Z[p].im, 0.0f};
  }
  const std::size_t lim = std::min(keep, nx / 2);
  for (std::size_t k = 1; k < lim; ++k) {
    const c32* zk = Z + k * gp;
    const c32* zm = Z + (nx - k) * gp;
    c32* a = A + k * gp;
    c32* b = B + k * gp;
    std::size_t p = 0;
    for (; p + V::planes <= gp; p += V::planes) {
      const auto vk = V::pload(zk + p);
      const auto vm = V::pconj(V::pload(zm + p));
      V::pstore(a + p, V::pscale(V::padd(vk, vm), 0.5f));
      V::pstore(b + p, V::pmul_neg_i(V::pscale(V::psub(vk, vm), 0.5f)));
    }
    for (; p < gp; ++p) {
      const c32 m = conj(zm[p]);
      a[p] = 0.5f * (zk[p] + m);
      b[p] = mul_neg_i(0.5f * (zk[p] - m));
    }
  }
  if (keep == nx / 2 + 1) {
    // Nyquist: its own mirror, so the formulas collapse to the lanes of
    // Z[nx/2] — real by construction for real input columns.
    const c32* zn = Z + (nx / 2) * gp;
    for (std::size_t p = 0; p < gp; ++p) {
      A[(nx / 2) * gp + p] = c32{zn[p].re, 0.0f};
      B[(nx / 2) * gp + p] = c32{zn[p].im, 0.0f};
    }
  }
}

// Inverse of the above: rebuilds the [nx][gp] packed spectra Z from the
// stored [stored][gp] rows of A and B.  Each column's half-spectrum is
// Hermitian-extended (DC, and Nyquist when stored, projected real) and the
// pair recombined as Z = A_ext + i * B_ext.
void retangle_rows(const c32* A, const c32* B, std::size_t nx, std::size_t gp,
                   std::size_t stored, c32* Z) {
  using V = simd::Active;
  const std::size_t lim = std::min(stored, nx / 2);
  // Bins with no stored source (truncation zero padding).
  std::fill(Z + lim * gp, Z + (nx - lim + 1) * gp, c32{});
  for (std::size_t p = 0; p < gp; ++p) Z[p] = c32{A[p].re, B[p].re};  // Im projected away
  for (std::size_t k = 1; k < lim; ++k) {
    const c32* a = A + k * gp;
    const c32* b = B + k * gp;
    c32* zk = Z + k * gp;
    c32* zm = Z + (nx - k) * gp;
    std::size_t p = 0;
    for (; p + V::planes <= gp; p += V::planes) {
      const auto va = V::pload(a + p);
      const auto vb = V::pload(b + p);
      V::pstore(zk + p, V::padd(va, V::pmul_pos_i(vb)));
      V::pstore(zm + p, V::padd(V::pconj(va), V::pmul_pos_i(V::pconj(vb))));
    }
    for (; p < gp; ++p) {
      zk[p] = a[p] + mul_pos_i(b[p]);
      zm[p] = conj(a[p]) + mul_pos_i(conj(b[p]));
    }
  }
  if (stored == nx / 2 + 1) {
    for (std::size_t p = 0; p < gp; ++p) {
      Z[(nx / 2) * gp + p] = c32{A[(nx / 2) * gp + p].re, B[(nx / 2) * gp + p].re};
    }
  }
}

// A float field [nx][ny] read as c32 is [nx][ny/2]: element p of a row is
// the column pair (2p, 2p+1).  One X-stage task covers one slab of g <=
// 2 * kBlockCols float columns, i.e. g/2 <= kBlockCols pairs: a single
// column block.

// Forward X transform of the gp column pairs starting at float column y0:
// one packed C2C column-block transform, then the vertical untangle into
// A/B ([keep][gp] rows each).
void forward_pairs(const FftPlan& plan, const float* field, std::size_t ny, std::size_t y0,
                   std::size_t gp, std::size_t keep, std::span<c32> buf, c32* A, c32* B) {
  const std::size_t nx = plan.desc().n;
  const c32* rows = reinterpret_cast<const c32*>(field + y0);
  xblock::gather(rows, field_layout(ny / 2), nx, gp, buf.data());
  xblock::prefetch_next(rows, field_layout(ny / 2), nx);
  untangle_rows(xblock::transform(plan, gp, buf), nx, gp, keep, A, B);
}

// Inverse of forward_pairs: retangle the stored A/B rows, run one inverse
// column-block transform, and write both real columns of every pair at
// once (output element {re, im} of pair p is the float pair (2p, 2p+1)).
void inverse_pairs(const FftPlan& plan, const c32* A, const c32* B, std::size_t stored,
                   std::size_t gp, std::span<c32> buf, float* field, std::size_t ny,
                   std::size_t y0) {
  const std::size_t nx = plan.desc().n;
  c32* rows = reinterpret_cast<c32*>(field + y0);
  xblock::prefetch_next(rows, field_layout(ny / 2), nx);
  retangle_rows(A, B, nx, gp, stored, buf.data());
  xblock::scatter(xblock::transform(plan, gp, buf), nx, gp, rows, field_layout(ny / 2));
}

// Every real X stage runs body(f, y0, gp, buf, A, B, rows) once per
// (field, slab) task, in parallel over the tasks: float columns [y0, y0 +
// 2 gp) of field f, with column-block scratch `buf` for `plan` (the full
// nx-point transform of direction `dir` the body runs) and `bins`-row A/B
// buffers.  With a hook (XSlabHook) a task covers every channel of its
// item, f = item * chans + channel, and `rows` is the channel's dense
// [nx][2 gp] rows of the task's slab: the forward's gather fills them
// first, the inverse's epilogue takes them after.  Without one, `rows` is
// null and the body reads or writes the field itself.
template <class Body>
void pair_tasks(Direction dir, const FftPlan& plan, std::size_t bins, std::size_t items,
                std::size_t chans, std::size_t ny, const XSlabHook<float>& hook,
                const Body& body) {
  const PlanDesc& d = plan.desc();
  if (d.dir != dir || d.keep_or_n() != d.n || d.nonzero_or_n() != d.n || !d.scale_inverse) {
    throw std::invalid_argument("real 2D X stage: needs the full-length plan of its direction");
  }
  check_real2d(d.n, ny, bins);
  if (items == 0 || chans == 0 || ny == 0) return;
  const std::size_t nx = d.n;
  const std::size_t task_chans = hook ? chans : 1;
  const xblock::SlabGrid grid = xblock::slab_grid(ny, 2 * kBlockCols, task_chans);
  runtime::parallel_for(0, items * chans / task_chans * grid.slabs_per_unit, grid.grain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> buf = arena.alloc<c32>(plan.blocked_scratch_elems());
    const std::span<c32> ab = arena.alloc<c32>(2 * bins * kBlockCols);
    const std::span<float> slab = arena.alloc<float>(hook ? chans * nx * grid.cols : 0);
    c32* A = ab.data();
    c32* B = ab.data() + bins * kBlockCols;
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t unit = t / grid.slabs_per_unit;  // the item, or the field
      const std::size_t y0 = (t % grid.slabs_per_unit) * grid.cols;
      const std::size_t g = std::min(grid.cols, ny - y0);
      if (hook && dir == Direction::Forward) hook(unit, y0, g, slab.data());
      for (std::size_t c = 0; c < task_chans; ++c) {
        body(unit * task_chans + c, y0, g / 2, buf, A, B,
             hook ? slab.data() + c * nx * g : nullptr);
      }
      if (hook && dir == Direction::Inverse) hook(unit, y0, g, slab.data());
    }
    // tfno-hot-end
  });
}

}  // namespace

std::uint64_t rfft2d_x_stage_flops(std::size_t nx, std::size_t ny, std::size_t keep_x) noexcept {
  return (ny / 2) * count_full_ops(nx).flops() + ny * 8 * keep_x;
}

void rfft2d_x_stage_to_tiles(const FftPlan& fwd_x, std::size_t keep_x, const float* in,
                             std::size_t items, std::size_t chans, std::size_t ny,
                             const XStageTileDst& dst, const XSlabHook<float>& gather) {
  const std::size_t nx = fwd_x.desc().n;
  pair_tasks(Direction::Forward, fwd_x, keep_x, items, chans, ny, gather,
             [&](std::size_t f, std::size_t y0, std::size_t gp, std::span<c32> buf, c32* A,
                 c32* B, const float* rows) {
    // tfno-hot-begin: runs inside pair_tasks' arena-scoped worker body
    if (rows != nullptr) {
      forward_pairs(fwd_x, rows, 2 * gp, 0, gp, keep_x, buf, A, B);
    } else {
      forward_pairs(fwd_x, in + f * nx * ny, ny, y0, gp, keep_x, buf, A, B);
    }
    // Block row 2p (2p+1) is the even (odd) column of pair p: A's and B's
    // columns land 2 * keep_x apart.
    c32* block = dst(f, y0, 2 * gp);
    xblock::scatter(A, keep_x, gp, block, tile_layout(2 * keep_x));
    xblock::scatter(B, keep_x, gp, block + keep_x, tile_layout(2 * keep_x));
    // tfno-hot-end
  });
}

void irfft2d_x_stage_from_tiles(const FftPlan& inv_x, std::size_t nonzero_x,
                                const XStageTileSrc& src, float* out, std::size_t items,
                                std::size_t chans, std::size_t ny,
                                const XSlabHook<float>& epilogue) {
  const std::size_t nx = inv_x.desc().n;
  pair_tasks(Direction::Inverse, inv_x, nonzero_x, items, chans, ny, epilogue,
             [&](std::size_t f, std::size_t y0, std::size_t gp, std::span<c32> buf, c32* A,
                 c32* B, float* rows) {
    // tfno-hot-begin: runs inside pair_tasks' arena-scoped worker body
    const c32* block = src(f, y0, 2 * gp);
    xblock::gather(block, tile_layout(2 * nonzero_x), nonzero_x, gp, A);
    xblock::gather(block + nonzero_x, tile_layout(2 * nonzero_x), nonzero_x, gp, B);
    if (rows != nullptr) {
      inverse_pairs(inv_x, A, B, nonzero_x, gp, buf, rows, 2 * gp, 0);
    } else {
      inverse_pairs(inv_x, A, B, nonzero_x, gp, buf, out + f * nx * ny, ny, y0);
    }
    // tfno-hot-end
  });
}

void rfft2d_x_stage(const FftPlan& fwd_x, std::size_t keep_x, const float* in, c32* out,
                    std::size_t fields, std::size_t ny) {
  const std::size_t nx = fwd_x.desc().n;
  pair_tasks(Direction::Forward, fwd_x, keep_x, fields, 1, ny, {},
             [&](std::size_t f, std::size_t y0, std::size_t gp, std::span<c32> buf, c32* A,
                 c32* B, const float*) {
    // tfno-hot-begin: runs inside pair_tasks' arena-scoped worker body
    forward_pairs(fwd_x, in + f * nx * ny, ny, y0, gp, keep_x, buf, A, B);
    // x-major spectrum rows: the two columns of a pair are adjacent c32.
    for (std::size_t k = 0; k < keep_x; ++k) {
      c32* row = out + (f * keep_x + k) * ny + y0;
      for (std::size_t p = 0; p < gp; ++p) {
        row[2 * p] = A[k * gp + p];
        row[2 * p + 1] = B[k * gp + p];
      }
    }
    // tfno-hot-end
  });
}

void irfft2d_x_stage(const FftPlan& inv_x, std::size_t nonzero_x, const c32* in, float* out,
                     std::size_t fields, std::size_t ny) {
  const std::size_t nx = inv_x.desc().n;
  pair_tasks(Direction::Inverse, inv_x, nonzero_x, fields, 1, ny, {},
             [&](std::size_t f, std::size_t y0, std::size_t gp, std::span<c32> buf, c32* A,
                 c32* B, float*) {
    // tfno-hot-begin: runs inside pair_tasks' arena-scoped worker body
    for (std::size_t k = 0; k < nonzero_x; ++k) {
      const c32* row = in + (f * nonzero_x + k) * ny + y0;
      for (std::size_t p = 0; p < gp; ++p) {
        A[k * gp + p] = row[2 * p];
        B[k * gp + p] = row[2 * p + 1];
      }
    }
    inverse_pairs(inv_x, A, B, nonzero_x, gp, buf, out + f * nx * ny, ny, y0);
    // tfno-hot-end
  });
}

void rfft2d_x_stage(std::size_t nx, std::size_t keep_x, const float* in, c32* out,
                    std::size_t fields, std::size_t ny) {
  rfft2d_x_stage(*acquire_plan({nx, Direction::Forward}), keep_x, in, out, fields, ny);
}

void irfft2d_x_stage(std::size_t nx, std::size_t nonzero_x, const c32* in, float* out,
                     std::size_t fields, std::size_t ny) {
  irfft2d_x_stage(*acquire_plan({nx, Direction::Inverse}), nonzero_x, in, out, fields, ny);
}

}  // namespace turbofno::fft
