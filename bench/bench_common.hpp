// Shared harness for the per-figure benchmark binaries.
//
// Every figure bench reports, for each problem point, the measured CPU
// wall-clock of each pipeline variant plus the A100-model prediction driven
// by the recorded traffic counters — "Performance vs PyTorch (%)" exactly as
// the paper's y-axes, where 100% means parity and 150% means 1.5x.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "baseline/problem.hpp"
#include "fused/ladder.hpp"
#include "gpusim/cost_model.hpp"
#include "tensor/aligned_buffer.hpp"

namespace turbofno::bench {

struct Options {
  bool full = false;     // paper-scale sweep (large, slow)
  std::size_t reps = 3;  // timed repetitions (best-of)
  std::string json;      // --json <path>: machine-readable per-variant results
  /// Exits 2 with a usage message on --reps that is not a positive integer
  /// or --json without a path.
  static Options parse(int argc, char** argv);
};

/// One pipeline variant's result on one problem point.
struct VariantResult {
  fused::Variant variant;
  std::string name;
  double seconds = 0.0;          // measured CPU wall-clock (best-of)
  double model_seconds = 0.0;    // A100 cost-model prediction
  std::uint64_t bytes = 0;
  std::uint64_t flops = 0;
  std::uint64_t launches = 0;
  std::string spectral_path = "complex";  // "complex" (C2C) or "real" (RFFT lane)
};

struct PointResult {
  std::string label;  // e.g. "K=32" or "M=65536"
  std::vector<VariantResult> variants;  // [0] is PyTorch

  /// Measured performance vs PyTorch in percent (100 = parity).
  [[nodiscard]] double perf_vs_base(std::size_t i) const {
    return 100.0 * variants.at(0).seconds / variants.at(i).seconds;
  }
  [[nodiscard]] double model_perf_vs_base(std::size_t i) const {
    return 100.0 * variants.at(0).model_seconds / variants.at(i).model_seconds;
  }
};

/// Runs the given ladder variants on one 1D problem and times them.
PointResult run_point_1d(const baseline::Spectral1dProblem& prob,
                         const std::vector<fused::Variant>& variants, std::size_t reps);

/// Same for 2D problems.
PointResult run_point_2d(const baseline::Spectral2dProblem& prob,
                         const std::vector<fused::Variant>& variants, std::size_t reps);

/// Times one variant's complex (C2C) lane against its real-input (RFFT)
/// lane on the same problem: variants[0] is the complex run (the
/// perf_vs_base baseline), variants[1] the half-spectrum real run, so
/// perf_vs_base(1) reads as "real lane vs complex lane in percent".
PointResult run_point_1d_real(const baseline::Spectral1dProblem& prob, fused::Variant variant,
                              std::size_t reps);
PointResult run_point_2d_real(const baseline::Spectral2dProblem& prob, fused::Variant variant,
                              std::size_t reps);

/// Prints the standard figure table: one row per point, one column pair
/// (measured %, modeled %) per non-baseline variant.
void print_figure_table(const std::string& title, const std::vector<PointResult>& points);

/// Summary line: average and max measured speedup of the last variant.
void print_summary(const std::vector<PointResult>& points, std::size_t variant_index);

/// Records one figure's results for --json emission and rewrites the file.
/// The path comes from the last Options::parse; a no-op when --json was not
/// given.  print_figure_table calls this automatically, so every figure
/// bench can drop a BENCH_*.json perf-trajectory file with per-variant
/// seconds and GFLOP/s; benches that format their own tables may call it
/// directly.
void record_json(const std::string& title, const std::vector<PointResult>& points);

/// The A100 spec every bench uses.
const gpusim::GpuSpec& a100();

}  // namespace turbofno::bench
