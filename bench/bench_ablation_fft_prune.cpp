// Ablation: what built-in truncation buys — a full FFT into an n-wide
// intermediate followed by a separate truncate-copy pass (the baseline's
// plan) against a truncated plan that stores only the kept bins.  The
// "pruned ops" column is the Figure-5 fraction of butterfly ops the paper's
// pruned GPU kernel retains (the CPU plan runs the dense Stockham network).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/workload.hpp"
#include "fft/opcount.hpp"
#include "fft/plan.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"
#include "tensor/aligned_buffer.hpp"
#include "trace/table.hpp"

namespace {

using namespace turbofno;

// The unfused schedule: full transform, then a second pass over the
// intermediate that copies the kept prefix of every signal.
void full_fft_then_copy(const fft::FftPlan& full, std::span<const c32> in, std::span<c32> inter,
                        std::span<c32> out, std::size_t batch, std::size_t n, std::size_t keep) {
  full.execute(in, inter, batch);
  runtime::parallel_for(0, batch, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::copy_n(inter.data() + b * n, keep, out.data() + b * keep);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = turbofno::bench::Options::parse(argc, argv);
  std::printf("== Ablation: full FFT + truncate-copy vs built-in truncation ==\n\n");

  const std::size_t batch = opt.full ? (1u << 17) : (1u << 15);
  trace::TextTable t({"n", "keep", "full+copy ms", "trunc plan ms", "speedup",
                      "pruned ops"});
  for (const std::size_t n : {128u, 256u, 1024u}) {
    for (const std::size_t div : {4u, 2u}) {
      const std::size_t keep = n / div;
      AlignedBuffer<c32> in(batch * n);
      AlignedBuffer<c32> inter(batch * n);
      AlignedBuffer<c32> out(batch * keep);
      core::fill_random(in.span(), 7u);

      fft::PlanDesc d;
      d.n = n;
      const fft::FftPlan full(d);
      d.keep = keep;
      const fft::FftPlan plan(d);

      const double t_copy = runtime::time_best_of(opt.reps, [&] {
        full_fft_then_copy(full, in.span(), inter.span(), out.span(), batch, n, keep);
      });
      const double t_trunc =
          runtime::time_best_of(opt.reps, [&] { plan.execute(in.span(), out.span(), batch); });

      t.add_row({std::to_string(n), std::to_string(keep),
                 trace::TextTable::fmt(t_copy * 1e3, 2),
                 trace::TextTable::fmt(t_trunc * 1e3, 2),
                 trace::TextTable::fmt(t_copy / t_trunc, 2) + "x",
                 trace::TextTable::fmt(100.0 * fft::pruned_fraction(n, keep, n), 1) + "%"});
    }
  }
  std::printf("%s", t.str().c_str());
  std::printf("\n(batch = %zu signals; 'pruned ops' is the Figure-5 butterfly fraction the\n"
              " paper's pruned GPU kernel retains)\n",
              batch);
  return 0;
}
