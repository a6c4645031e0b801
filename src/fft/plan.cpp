#include "fft/plan.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fft/opcount.hpp"
#include "fft/stockham.hpp"
#include "fft/twiddle.hpp"
#include "fft/xblock.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"

namespace turbofno::fft {

FftPlan::FftPlan(PlanDesc desc) : desc_(desc) {
  if (!is_pow2(desc_.n)) throw std::invalid_argument("FftPlan: n must be a power of two >= 2");
  if (desc_.keep > desc_.n) throw std::invalid_argument("FftPlan: keep > n");
  if (desc_.nonzero > desc_.n) throw std::invalid_argument("FftPlan: nonzero > n");
  const std::size_t m = desc_.keep_or_n();
  const std::size_t p = desc_.nonzero_or_n();
  pruned_ = (m != desc_.n) || (p != desc_.n);
  const OpCount oc = count_pruned_ops(desc_.n, m, p);
  unit_ops_ = oc.unit_ops;
  flops_ = oc.flops();
  // Pre-build the twiddle table so execution never takes the cache lock on a
  // cold path inside a parallel region.
  (void)twiddles_for(desc_.n);
}

std::uint64_t FftPlan::bytes_read_per_signal() const noexcept {
  return desc_.nonzero_or_n() * sizeof(c32);
}

std::uint64_t FftPlan::bytes_written_per_signal() const noexcept {
  return desc_.keep_or_n() * sizeof(c32);
}

void FftPlan::execute_one(const c32* in, std::ptrdiff_t in_elem_stride, c32* out,
                          std::ptrdiff_t out_elem_stride, std::span<c32> work) const {
  const std::size_t n = desc_.n;
  const std::size_t m = desc_.keep_or_n();
  const std::size_t p = desc_.nonzero_or_n();
  assert(work.size() >= 2 * n);

  // One path for every plan: gather the stored prefix and zero the tail, run
  // the dense Stockham transform, store the first m bins.  A filtered plan
  // therefore returns exactly the dense transform of the explicitly padded
  // signal, truncated.
  c32* buf = work.data();
  if (in_elem_stride == 1) {
    std::copy_n(in, p, buf);
  } else {
    for (std::size_t j = 0; j < p; ++j) buf[j] = in[static_cast<std::ptrdiff_t>(j) * in_elem_stride];
  }
  std::fill(buf + p, buf + n, c32{});

  const std::span<c32> io{buf, n};
  const std::span<c32> scratch{work.data() + n, n};
  if (desc_.dir == Direction::Inverse) {
    stockham_inverse(io, scratch, n, desc_.scale_inverse);
  } else {
    stockham_forward(io, scratch, n);
  }

  if (out_elem_stride == 1) {
    std::copy_n(buf, m, out);
  } else {
    for (std::size_t k = 0; k < m; ++k) out[static_cast<std::ptrdiff_t>(k) * out_elem_stride] = buf[k];
  }
}

void FftPlan::execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const {
  ExecLayout layout;
  layout.in_batch_stride = static_cast<std::ptrdiff_t>(desc_.nonzero_or_n());
  layout.out_batch_stride = static_cast<std::ptrdiff_t>(desc_.keep_or_n());
  if (in.size() < batch * desc_.nonzero_or_n() || out.size() < batch * desc_.keep_or_n()) {
    throw std::invalid_argument("FftPlan::execute: spans too small for batch");
  }
  if (in.data() == out.data() && desc_.keep_or_n() > desc_.nonzero_or_n()) {
    throw std::invalid_argument("FftPlan::execute: in-place requires keep <= nonzero");
  }
  execute_strided(in.data(), out.data(), batch, layout);
}

void FftPlan::execute_blocked(std::size_t g, const c32* in, Layout in_l, c32* out,
                              Layout out_l, std::span<c32> work) const {
  assert(work.size() >= blocked_scratch_elems());
  const std::size_t rows_in = desc_.nonzero_or_n();
  const std::size_t rows_out = desc_.keep_or_n();
  std::size_t c = 0;
  if (desc_.n >= kMinBlockedN) {
    for (; c + kBlockCols <= g; c += kBlockCols) {
      const c32* src = in + c * in_l.col_stride;
      c32* dst = out + c * out_l.col_stride;
      xblock::gather(src, in_l, rows_in, kBlockCols, work.data());
      xblock::prefetch_next(src, in_l, rows_in);
      xblock::prefetch_next(dst, out_l, rows_out);
      xblock::scatter(xblock::transform(*this, kBlockCols, work), rows_out, kBlockCols, dst,
                      out_l);
    }
  }
  for (; c < g; ++c) {
    execute_one(in + c * in_l.col_stride, static_cast<std::ptrdiff_t>(in_l.row_stride),
                out + c * out_l.col_stride, static_cast<std::ptrdiff_t>(out_l.row_stride),
                work);
  }
}

void FftPlan::execute_strided(const c32* in, c32* out, std::size_t batch,
                              const ExecLayout& layout) const {
  const std::ptrdiff_t ibs = layout.in_batch_stride != 0
                                 ? layout.in_batch_stride
                                 : static_cast<std::ptrdiff_t>(desc_.nonzero_or_n());
  const std::ptrdiff_t obs = layout.out_batch_stride != 0
                                 ? layout.out_batch_stride
                                 : static_cast<std::ptrdiff_t>(desc_.keep_or_n());
  assert(layout.in_elem_stride >= 0 && layout.out_elem_stride >= 0 && ibs >= 0 && obs >= 0);
  const Layout in_l{static_cast<std::size_t>(layout.in_elem_stride),
                    static_cast<std::size_t>(ibs)};
  const Layout out_l{static_cast<std::size_t>(layout.out_elem_stride),
                     static_cast<std::size_t>(obs)};

  // Tasks own whole blocks of kBlockCols signals.  Grain: keep each task
  // >= ~64k elements of butterfly work to amortize the fork.
  const std::size_t blocks = (batch + kBlockCols - 1) / kBlockCols;
  const std::size_t grain = std::max<std::size_t>(1, 65536 / (desc_.n * kBlockCols));
  runtime::parallel_for(0, blocks, grain, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(blocked_scratch_elems());
    const std::size_t b0 = lo * kBlockCols;
    execute_blocked(std::min(hi * kBlockCols, batch) - b0, in + b0 * in_l.col_stride, in_l,
                    out + b0 * out_l.col_stride, out_l, work);
    // tfno-hot-end
  });
}

}  // namespace turbofno::fft
