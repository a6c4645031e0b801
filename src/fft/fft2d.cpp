#include "fft/fft2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/twiddle.hpp"
#include "fft/xblock.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/aligned_buffer.hpp"

namespace turbofno::fft {

namespace {

PlanDesc make_x_desc(const Plan2dDesc& d) {
  PlanDesc p;
  p.n = d.nx;
  p.dir = d.dir;
  p.scale_inverse = d.scale_inverse;
  if (d.dir == Direction::Forward) {
    p.keep = d.keep_x_or_nx();
    p.nonzero = d.nx;
  } else {
    p.keep = d.nx;
    p.nonzero = d.keep_x_or_nx();
  }
  return p;
}

PlanDesc make_y_desc(const Plan2dDesc& d) {
  PlanDesc p;
  p.n = d.ny;
  p.dir = d.dir;
  p.scale_inverse = d.scale_inverse;
  if (d.dir == Direction::Forward) {
    p.keep = d.keep_y_or_ny();
    p.nonzero = d.ny;
  } else {
    p.keep = d.ny;
    p.nonzero = d.keep_y_or_ny();
  }
  return p;
}

Plan2dDesc validated_2d(Plan2dDesc d) {
  if (!is_pow2(d.nx) || !is_pow2(d.ny)) {
    throw std::invalid_argument("FftPlan2d: nx and ny must be powers of two >= 2");
  }
  if (d.keep_x > d.nx || d.keep_y > d.ny) {
    throw std::invalid_argument("FftPlan2d: keep exceeds dimension");
  }
  return d;
}

// FftPlan2d's fused middle pays strided Y-stage gathers against the
// per-field staging tile; that trade wins only while the tile stays
// L2-resident.  Dense full-size fields at >= 512^2 (2 MiB tiles) thrash
// and measure slower than the two-pass schedule, so they keep it.  The
// FNO-shaped truncated plans (tile = ny * modes_x) are far below this.
constexpr std::size_t kFusedFieldBudgetBytes = 1u << 20;

// Every X stage below runs one execute_blocked per (field, column slab)
// task, in parallel over the tasks; `in_l` / `out_l` say whether each side
// is x-major field rows or the caller's y-major tile blocks.  A hook
// (XSlabHook) makes a task cover every channel of its item over a slab of
// one column block instead, and swaps a side for dense slab rows in the
// task's arena: the gather hook fills them before the transforms, the
// epilogue hook takes them after.  Without one, a task is one field over
// two column blocks, so it runs on while the next block's rows are fresh.
template <class InAt, class OutAt>
void x_stage_tasks(const FftPlan& plan, std::size_t items, std::size_t chans, std::size_t ny,
                   const InAt& in_at, Layout in_l, const OutAt& out_at, Layout out_l,
                   const XSlabHook<c32>& gather = {}, const XSlabHook<c32>& epilogue = {}) {
  if (items == 0 || chans == 0 || ny == 0) return;
  const bool hooked = gather || epilogue;
  const std::size_t task_chans = hooked ? chans : 1;
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  const std::size_t rows_out = plan.desc().keep_or_n();
  const std::size_t slab_rows = gather ? rows_in : epilogue ? rows_out : 0;
  const xblock::SlabGrid grid =
      xblock::slab_grid(ny, hooked ? kBlockCols : 2 * kBlockCols, task_chans);
  runtime::parallel_for(0, items * chans / task_chans * grid.slabs_per_unit, grid.grain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> buf = arena.alloc<c32>(plan.blocked_scratch_elems());
    const std::span<c32> slab = arena.alloc<c32>(task_chans * slab_rows * grid.cols);
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t unit = t / grid.slabs_per_unit;  // the item, or the field
      const std::size_t y0 = (t % grid.slabs_per_unit) * grid.cols;
      const std::size_t g = std::min(grid.cols, ny - y0);
      if (gather) gather(unit, y0, g, slab.data());
      for (std::size_t c = 0; c < task_chans; ++c) {
        const std::size_t f = unit * task_chans + c;
        c32* rows = slab.data() + c * slab_rows * g;
        const c32* src = gather ? rows : in_at(f, y0, g);
        c32* dst = epilogue ? rows : out_at(f, y0, g);
        plan.execute_blocked(g, src, gather ? field_layout(g) : in_l, dst,
                             epilogue ? field_layout(g) : out_l, buf);
      }
      if (epilogue) epilogue(unit, y0, g, slab.data());
    }
    // tfno-hot-end
  });
}

}  // namespace

void fft2d_x_stage(const FftPlan& plan, const c32* in, c32* out, std::size_t fields,
                   std::size_t ny) {
  // Field rows in, field rows out: each block reads its stored rows and
  // writes its kept rows straight to the output field, with no transpose
  // on either side.
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  const std::size_t rows_out = plan.desc().keep_or_n();
  x_stage_tasks(
      plan, fields, 1, ny,
      [&](std::size_t f, std::size_t y0, std::size_t) { return in + f * rows_in * ny + y0; },
      field_layout(ny),
      [&](std::size_t f, std::size_t y0, std::size_t) { return out + f * rows_out * ny + y0; },
      field_layout(ny));
}

void fft2d_x_stage_to_tiles(const FftPlan& plan, const c32* in, std::size_t items,
                            std::size_t chans, std::size_t ny, const XStageTileDst& dst,
                            const XSlabHook<c32>& gather) {
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  x_stage_tasks(
      plan, items, chans, ny,
      [&](std::size_t f, std::size_t y0, std::size_t) { return in + f * rows_in * ny + y0; },
      field_layout(ny), dst, tile_layout(plan.desc().keep_or_n()), gather);
}

void fft2d_x_stage_from_tiles(const FftPlan& plan, const XStageTileSrc& src, c32* out,
                              std::size_t items, std::size_t chans, std::size_t ny,
                              const XSlabHook<c32>& epilogue) {
  const std::size_t rows_out = plan.desc().keep_or_n();
  x_stage_tasks(
      plan, items, chans, ny, src, tile_layout(plan.desc().nonzero_or_n()),
      [&](std::size_t f, std::size_t y0, std::size_t) { return out + f * rows_out * ny + y0; },
      field_layout(ny), {}, epilogue);
}

FftPlan2d::FftPlan2d(Plan2dDesc desc)
    : desc_(validated_2d(desc)), along_x_(make_x_desc(desc_)), along_y_(make_y_desc(desc_)) {}

std::size_t FftPlan2d::in_field_elems() const noexcept {
  return desc_.dir == Direction::Forward ? desc_.nx * desc_.ny
                                         : desc_.keep_x_or_nx() * desc_.keep_y_or_ny();
}

std::size_t FftPlan2d::out_field_elems() const noexcept {
  return desc_.dir == Direction::Forward ? desc_.keep_x_or_nx() * desc_.keep_y_or_ny()
                                         : desc_.nx * desc_.ny;
}

std::uint64_t FftPlan2d::flops_per_field() const noexcept {
  if (desc_.dir == Direction::Forward) {
    // Stage 1 along X: ny columns; stage 2 along Y: keep_x rows.
    return along_x_.flops_per_signal() * desc_.ny +
           along_y_.flops_per_signal() * desc_.keep_x_or_nx();
  }
  // Inverse: stage 1 along Y on keep_x rows, stage 2 along X on ny columns.
  return along_y_.flops_per_signal() * desc_.keep_x_or_nx() +
         along_x_.flops_per_signal() * desc_.ny;
}

void FftPlan2d::execute_fused(std::span<const c32> in, std::span<c32> out,
                              std::size_t batch) const {
  // Fused middle stage: one task per field keeps that field's X spectra in a
  // y-major arena tile ([ny, kx], row y holds the kx surviving X modes of
  // column y) and runs the Y stage straight out of / into it.  The x-major
  // [kx, ny] intermediate of the two-pass path never exists; the Y stage
  // reads its blocks of 8 adjacent tile columns instead, against scratch
  // that stays cache-resident.  Bitwise-identical to the two-pass path:
  // both run every transform through execute_blocked, whose output per
  // signal does not depend on the layout or the batch around it.
  const std::size_t ny = desc_.ny;
  const std::size_t kx = desc_.keep_x_or_nx();
  const std::size_t in_f = in_field_elems();
  const std::size_t out_f = out_field_elems();
  const std::size_t y_in_len = along_y_.desc().nonzero_or_n();
  const std::size_t y_out_len = along_y_.desc().keep_or_n();

  runtime::parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> staging = arena.alloc<c32>(ny * kx);
    const std::span<c32> xbuf = arena.alloc<c32>(along_x_.blocked_scratch_elems());
    const std::span<c32> ybuf = arena.alloc<c32>(along_y_.blocked_scratch_elems());

    for (std::size_t f = lo; f < hi; ++f) {
      if (desc_.dir == Direction::Forward) {
        // X stage into the y-major tile (serial within the task;
        // parallelism comes from the field loop), then the Y stage: row x
        // of the output is column x of the tile.
        along_x_.execute_blocked(ny, in.data() + f * in_f, field_layout(ny), staging.data(),
                                 tile_layout(kx), xbuf);
        along_y_.execute_blocked(kx, staging.data(), field_layout(kx),
                                 out.data() + f * out_f, tile_layout(y_out_len), ybuf);
      } else {
        // Inverse: Y stage scatters into the y-major tile, then the X stage
        // consumes it.
        along_y_.execute_blocked(kx, in.data() + f * in_f, tile_layout(y_in_len),
                                 staging.data(), field_layout(kx), ybuf);
        along_x_.execute_blocked(ny, staging.data(), tile_layout(kx), out.data() + f * out_f,
                                 field_layout(ny), xbuf);
      }
    }
    // tfno-hot-end
  });
}

void FftPlan2d::execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const {
  const std::size_t ny = desc_.ny;
  const std::size_t kx = desc_.keep_x_or_nx();
  if (in.size() < batch * in_field_elems() || out.size() < batch * out_field_elems()) {
    throw std::invalid_argument("FftPlan2d::execute: spans too small for batch");
  }
  if (batch == 0) return;

  // The per-field fused path keeps its staging tile L2-resident only below
  // kFusedFieldBudgetBytes, and it parallelizes across fields only, so it
  // also needs enough fields to feed the worker pool.  Otherwise take the
  // two-pass schedule, whose fields*slabs / row-block loops split further
  // (the two are bitwise-identical, so this is purely a scheduling choice).
  if (ny * kx * sizeof(c32) <= kFusedFieldBudgetBytes &&
      batch >= static_cast<std::size_t>(runtime::thread_count())) {
    execute_fused(in, out, batch);
    return;
  }

  // Intermediate between the stages: [keep_x, ny] per field.  One heap
  // allocation per execute call (amortized over a whole 2D transform) —
  // deliberately NOT arena-held: the grow-only thread-local arena would
  // retain this O(batch * kx * ny) block per calling thread forever.  The
  // per-chunk hot-loop buffers below do come from the arena.  (The fused
  // per-field path above avoids this block entirely.)
  AlignedBuffer<c32> mid(batch * kx * ny);

  // Y stage: contiguous transforms over the batch * keep_x surviving rows,
  // one column block of them per task.  Explicit grain of two blocks (16
  // rows) per chunk: FftPlan::execute's 64k-element grain policy would put
  // all rows of a typical (keep_x * batch) count in one chunk and serialize
  // the stage on many-core hosts.
  const auto y_stage = [&](const c32* src, c32* dst) {
    const Layout in_l = tile_layout(along_y_.desc().nonzero_or_n());
    const Layout out_l = tile_layout(along_y_.desc().keep_or_n());
    const std::size_t rows = batch * kx;
    runtime::parallel_for(0, (rows + kBlockCols - 1) / kBlockCols, 2,
                          [&](std::size_t lo, std::size_t hi) {
      auto& a = runtime::tls_scratch();
      const auto s = a.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      const std::span<c32> work = a.alloc<c32>(along_y_.blocked_scratch_elems());
      const std::size_t r0 = lo * kBlockCols;
      along_y_.execute_blocked(std::min(hi * kBlockCols, rows) - r0, src + r0 * in_l.col_stride,
                               in_l, dst + r0 * out_l.col_stride, out_l, work);
      // tfno-hot-end
    });
  };

  if (desc_.dir == Direction::Forward) {
    fft2d_x_stage(along_x_, in.data(), mid.data(), batch, ny);
    y_stage(mid.data(), out.data());
    return;
  }
  // Inverse: stage 1 along Y (zero-padded ky -> ny) on keep_x rows, then
  // stage 2 along X (zero-padded kx -> nx) over all ny columns.
  y_stage(in.data(), mid.data());
  fft2d_x_stage(along_x_, mid.data(), out.data(), batch, ny);
}

}  // namespace turbofno::fft
