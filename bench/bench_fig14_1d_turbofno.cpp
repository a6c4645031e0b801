// Figure 14: 1D TurboFNO (best of all optimizations) vs PyTorch, rendered
// as the paper's heatmaps over (K, log2 M) for 128/256-pt FFTs with
// truncation to 64/128 modes.  Also prints Table 2's method mapping.  Every
// heatmap's points (all five variants per cell) are recorded in --json as
// their own figure.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sweep1d.hpp"
#include "trace/table.hpp"

namespace {

using namespace turbofno::bench;
using turbofno::fused::Variant;

void heatmap(const Options& opt, std::size_t n, std::size_t modes) {
  const std::vector<std::size_t> ks = opt.full
                                          ? std::vector<std::size_t>{8, 24, 40, 56, 72, 88, 104, 120}
                                          : std::vector<std::size_t>{8, 40, 72, 120};
  const std::vector<std::size_t> log_ms = opt.full
                                              ? std::vector<std::size_t>{8, 10, 12, 14, 16, 18, 20}
                                              : std::vector<std::size_t>{10, 13, 16};

  std::vector<std::string> row_labels;
  for (const auto lm : log_ms) row_labels.push_back("2^" + std::to_string(lm));
  std::vector<std::string> col_labels;
  for (const auto k : ks) col_labels.push_back(std::to_string(k));
  turbofno::trace::AsciiHeatmap heat(row_labels, col_labels);
  turbofno::trace::AsciiHeatmap heat_model(row_labels, col_labels);

  double sum = 0.0;
  double best = -1e9;
  std::size_t count = 0;
  std::vector<PointResult> points;
  for (std::size_t r = 0; r < log_ms.size(); ++r) {
    for (std::size_t c = 0; c < ks.size(); ++c) {
      const auto prob = make_1d(std::size_t{1} << log_ms[r], ks[c], n, modes);
      auto pr = run_point_1d(
          prob, {Variant::PyTorch, Variant::FftOpt, Variant::FusedFftGemm,
                 Variant::FusedGemmIfft, Variant::FullyFused},
          opt.reps);
      // Best-of TurboFNO strategies, as the paper's Fig 14 does.
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
      pr.label = "M=2^" + std::to_string(log_ms[r]) + ",K=" + std::to_string(ks[c]);
      points.push_back(std::move(pr));
    }
  }
  record_json("Figure 14 heatmap: " + std::to_string(n) + "-pt FFT, " + std::to_string(modes) +
                  " modes, 1D ladder vs PyTorch",
              points);
  std::printf("Figure 14 heatmap: %zu-pt FFT, N(modes)=%zu — measured speedup vs PyTorch\n",
              n, modes);
  std::printf("(rows: M = batch x modes; cols: hidden dim K)\n%s\n", heat.str().c_str());
  std::printf("Same grid, A100 cost-model prediction:\n%s\n", heat_model.str().c_str());
  std::printf("grid summary: average %+.1f%%, max %+.1f%% vs PyTorch\n\n",
              sum / static_cast<double>(count), best);
}

// Real-input (RFFT) lane vs the complex lane on spectral-dominated shapes:
// the half-spectrum schedule moves ~half the bytes through every stage, so
// the real rows should land well above 100%.  Recorded as its own --json
// figure with spectral_path-tagged variant rows.
void real_vs_complex(const Options& opt) {
  struct Shape {
    std::size_t m, k, n, modes;
  };
  const std::vector<Shape> shapes = opt.full
                                        ? std::vector<Shape>{{1u << 14, 32, 128, 64},
                                                             {1u << 16, 32, 128, 64},
                                                             {1u << 16, 64, 128, 64},
                                                             {1u << 16, 32, 256, 128},
                                                             {1u << 18, 64, 256, 128}}
                                        : std::vector<Shape>{{1u << 14, 32, 128, 64},
                                                             {1u << 16, 32, 128, 64},
                                                             {1u << 16, 32, 256, 128}};
  std::vector<PointResult> points;
  for (const auto& s : shapes) {
    auto pr = run_point_1d_real(make_1d(s.m, s.k, s.n, s.modes), Variant::FullyFused, opt.reps);
    pr.label = "M=" + std::to_string(s.m) + ",K=" + std::to_string(s.k) + ",n=" +
               std::to_string(s.n);
    points.push_back(std::move(pr));
  }
  print_figure_table("Figure 14 real-vs-complex: RFFT lane vs C2C lane (1D fully fused)", points);
  print_summary(points, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  std::printf("== Fig 14: 1D TurboFNO (all optimizations, best-of) vs PyTorch ==\n\n");
  std::printf("Table 2 method mapping:\n");
  std::printf("  A = FFT pruning/truncation/zero-padding (Fig 10)\n");
  std::printf("  B = fused FFT-CGEMM                      (Fig 11)\n");
  std::printf("  C = fused CGEMM-iFFT                     (Fig 12)\n");
  std::printf("  D = fused FFT-CGEMM-iFFT                 (Fig 13)\n");
  std::printf("  E = TurboFNO best-of A+B+C+D             (this figure)\n\n");

  heatmap(opt, 128, 64);
  if (opt.full) {
    heatmap(opt, 128, 128);
    heatmap(opt, 256, 64);
    heatmap(opt, 256, 128);
  } else {
    heatmap(opt, 256, 64);
  }
  real_vs_complex(opt);
  return 0;
}
