// Benchmark suite (tfno_suite): shared vocabulary.
//
// One process runs one workload (README.md says why each exists):
//
//   fno2d_c2c     Fno2d forward, complex lane     (the paper's Fig 19 point)
//   fno1d_c2c     Fno1d forward, complex lane     (a CGEMM-heavy Fig 14 point)
//   fno2d_real    Fno2d forward, real (RFFT) lane
//   serve_router  small 1D model behind shard::Router + 2 shard::Workers
//
// A plain run (--trace 0) measures the end-to-end metrics with nothing but
// the workload running.  A traced run (--trace 1) instead times calls into
// each module's public functions from outside, reads the counters the
// modules already keep, and reports the per-layer metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fno.hpp"
#include "tensor/complex.hpp"

namespace tfno_suite {

struct Args {
  std::string workload;
  unsigned seed = 1;
  // Measured phase length of a plain run.  Fixed by BENCHMARK.json
  // (run_seconds), which every run passes; results of different lengths are
  // not compared.
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;     // short phases, for a quick end-to-end check
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the fields of the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  int threads = 0;  // runtime worker threads of the workload (host block)

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// ||a - b|| / ||b|| in double precision.
double rel_l2(std::span<const double> a, std::span<const double> b);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Probe repetitions: at least `min_reps`, and until `budget_s` has passed.
struct ProbeBudget {
  double budget_s = 0.5;
  std::size_t min_reps = 5;
};

inline ProbeBudget probe_budget(const Args& a) {
  return a.smoke ? ProbeBudget{0.02, 2} : ProbeBudget{0.5, 5};
}

/// Seconds of the fastest repetition of `fn`, after one untimed warm call.
/// Outside load only ever adds time, so the fastest repetition is the one a
/// probe can compare across runs.
template <class Fn>
double fastest_run(const ProbeBudget& pb, Fn&& fn) {
  fn();
  double best = INFINITY;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < pb.min_reps || seconds_since(t0) < pb.budget_s; ++rep) {
    const auto s = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(s));
  }
  return best;
}

/// Relative L2 error of a model's first spectral layer (whatever variant
/// it runs) against a double-precision direct DFT + CGEMM reference, on
/// seeded uniform random hidden fields on the lane given by `real`.
double spectral_layer_rel_err(turbofno::core::Fno1d* m1, turbofno::core::Fno2d* m2,
                              unsigned seed, bool real);

/// Compute-layer probes (baseline, fused, fft, gemm, core, runtime) on the
/// first spectral layer of the given model (exactly one of c1/c2) at
/// `batch`, with the workload's runtime thread count.
void probe_compute_layers(const turbofno::core::Fno1dConfig* c1,
                          const turbofno::core::Fno2dConfig* c2, std::size_t batch, bool real,
                          int threads, const Args& args, Result& out);

/// Wire-codec probe on one request/response frame of shape `dims`.
void probe_codec(std::span<const std::uint32_t> dims, bool real, const Args& args, Result& out);

/// Serving-layer probes (serve, net, shard, loadgen) on the serve_router
/// fleet.  Every traced run includes them, so each workload's trace
/// carries the whole per-layer vocabulary.
void probe_serving_layers(const Args& args, Result& out);

Result run_compute(const Args& args);
Result run_serve_router(const Args& args);

/// Host block (nproc, threads, CPU, ISA, caches, SIMD backend, build, load)
/// as a JSON object.
std::string host_json(int threads);

}  // namespace tfno_suite
