// Figure 19: 2D TurboFNO (best-of) vs PyTorch heatmaps over (K, batch) for
// 256x128 and 256x256 fields with truncation to 64/128 modes, plus a
// thread-scaling axis for the fused (batch x x-row) parallelization.  The
// heatmap points and the thread axis are each recorded in --json as their
// own figure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/parallel.hpp"
#include "sweep2d.hpp"
#include "trace/table.hpp"

namespace {

using namespace turbofno::bench;
using turbofno::fused::Variant;

void heatmap(const Options& opt, std::size_t nx, std::size_t ny, std::size_t modes) {
  const std::vector<std::size_t> ks = opt.full
                                          ? std::vector<std::size_t>{8, 24, 40, 56, 72, 88, 104, 120}
                                          : std::vector<std::size_t>{8, 40, 88};
  const std::vector<std::size_t> bss = opt.full ? std::vector<std::size_t>{1, 16, 32, 48, 64}
                                                : std::vector<std::size_t>{1, 4, 8};

  std::vector<std::string> rows;
  for (const auto b : bss) rows.push_back("BS=" + std::to_string(b));
  std::vector<std::string> cols;
  for (const auto k : ks) cols.push_back(std::to_string(k));
  turbofno::trace::AsciiHeatmap heat(rows, cols);
  turbofno::trace::AsciiHeatmap heat_model(rows, cols);

  double sum = 0.0;
  double best = -1e9;
  std::size_t count = 0;
  std::vector<PointResult> points;
  for (std::size_t r = 0; r < bss.size(); ++r) {
    for (std::size_t c = 0; c < ks.size(); ++c) {
      const auto prob = make_2d(bss[r], ks[c], nx, ny, modes, modes);
      auto pr = run_point_2d(
          prob, {Variant::PyTorch, Variant::FftOpt, Variant::FusedFftGemm,
                 Variant::FusedGemmIfft, Variant::FullyFused},
          opt.reps);
      double best_pct = -1e9;
      double best_model = -1e9;
      for (std::size_t i = 1; i < pr.variants.size(); ++i) {
        best_pct = std::max(best_pct, pr.perf_vs_base(i) - 100.0);
        best_model = std::max(best_model, pr.model_perf_vs_base(i) - 100.0);
      }
      heat.set(r, c, best_pct);
      heat_model.set(r, c, best_model);
      sum += best_pct;
      best = std::max(best, best_pct);
      ++count;
      pr.label = "BS=" + std::to_string(bss[r]) + ",K=" + std::to_string(ks[c]);
      points.push_back(std::move(pr));
    }
  }
  record_json("Figure 19 heatmap: " + std::to_string(nx) + "x" + std::to_string(ny) + ", " +
                  std::to_string(modes) + "x" + std::to_string(modes) +
                  " modes, 2D ladder vs PyTorch",
              points);
  std::printf("Figure 19 heatmap: %zux%zu 2D FFT, N(modes)=%zu — measured speedup vs PyTorch\n",
              nx, ny, modes);
  std::printf("%s\n", heat.str().c_str());
  std::printf("Same grid, A100 cost-model prediction:\n%s\n", heat_model.str().c_str());
  std::printf("grid summary: average %+.1f%%, max %+.1f%% vs PyTorch\n\n",
              sum / static_cast<double>(count), best);
}

// Thread-scaling axis (ROADMAP's threaded-2D-fusion tuning item): the
// fully fused pipeline on one representative shape, swept over worker
// counts with the tuned (batch x x-row) grain.  Points land in the --json
// trajectory so per-PR perf recording captures scaling regressions too.
void thread_scaling(const Options& opt) {
  const auto prob = make_2d(4, 40, 256, 128, 64, 64);
  const std::vector<int> threads = opt.full ? std::vector<int>{1, 2, 4, 8, 16}
                                            : std::vector<int>{1, 2, 4};
  std::vector<PointResult> points;
  for (const int t : threads) {
    turbofno::runtime::set_thread_count(t);
    auto pr = run_point_2d(prob, {Variant::PyTorch, Variant::FullyFused}, opt.reps);
    pr.label = "T=" + std::to_string(t);
    points.push_back(std::move(pr));
  }
  turbofno::runtime::set_thread_count(0);  // restore the hardware default
  print_figure_table(
      "Figure 19 thread scaling: fused 2D (BS=4, K=40, 256x128, modes 64x64)",
      points);
}

// Real-input (RFFT) lane vs the complex lane: the X axis carries the real
// transform, so only modes_x/2+1 x-rows flow through the Y FFTs, the CGEMM
// and the inverse — roughly half the traffic of the C2C schedule.
void real_vs_complex(const Options& opt) {
  struct Shape {
    std::size_t bs, k, nx, ny, modes;
  };
  const std::vector<Shape> shapes = opt.full ? std::vector<Shape>{{4, 32, 256, 128, 64},
                                                                  {8, 32, 256, 128, 64},
                                                                  {8, 64, 256, 128, 64},
                                                                  {4, 32, 256, 256, 128},
                                                                  {8, 64, 256, 256, 128}}
                                             : std::vector<Shape>{{4, 32, 256, 128, 64},
                                                                  {8, 32, 256, 128, 64},
                                                                  {4, 32, 256, 256, 128}};
  std::vector<PointResult> points;
  for (const auto& s : shapes) {
    auto pr = run_point_2d_real(make_2d(s.bs, s.k, s.nx, s.ny, s.modes, s.modes),
                                Variant::FullyFused, opt.reps);
    pr.label = "BS=" + std::to_string(s.bs) + ",K=" + std::to_string(s.k) + "," +
               std::to_string(s.nx) + "x" + std::to_string(s.ny);
    points.push_back(std::move(pr));
  }
  print_figure_table("Figure 19 real-vs-complex: RFFT lane vs C2C lane (2D fully fused)", points);
  print_summary(points, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  std::printf("== Fig 19: 2D TurboFNO (all optimizations, best-of) vs PyTorch ==\n\n");
  heatmap(opt, 256, 128, 64);
  if (opt.full) {
    heatmap(opt, 256, 128, 128);
    heatmap(opt, 256, 256, 64);
    heatmap(opt, 256, 256, 128);
  }
  thread_scaling(opt);
  real_vs_complex(opt);
  return 0;
}
