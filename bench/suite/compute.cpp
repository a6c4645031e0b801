// Compute workloads (fno2d_c2c, fno1d_c2c, fno2d_real) and the compute-layer
// probes of every traced run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "core/api.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real2d.hpp"
#include "gemm/batched.hpp"
#include "gpusim/pipeline_model.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"
#include "suite.hpp"

namespace tfno_suite {

using namespace turbofno;

namespace {

using cd = std::complex<double>;

struct ComputeSpec {
  const char* name;
  bool is_2d;
  bool real;
  core::Fno1dConfig c1;
  core::Fno2dConfig c2;
  std::size_t batch;
};

// The paper's Fig 19 point (2D) and a Fig 14-class point (1D).  One layer
// each, so a forward is one spectral layer plus its pointwise residual.
constexpr core::Fno2dConfig kFig19{1, 40, 1, 256, 128, 64, 64, 1, core::Backend::Auto};
constexpr core::Fno1dConfig kFig14{1, 128, 1, 128, 64, 1, core::Backend::Auto};

const ComputeSpec kSpecs[] = {
    {"fno2d_c2c", true, false, {}, kFig19, 4},
    {"fno1d_c2c", false, false, kFig14, {}, 128},
    {"fno2d_real", true, true, {}, kFig19, 4},
};

// One runtime thread: on a shared host a single thread is disturbed far
// less by other load than a team that waits at every barrier (README.md
// "Noise"); fused.auto.ms_t2/_t4 in the trace show the thread scaling.
constexpr int kComputeThreads = 1;

// ------------------------------------------------------------- reference

/// Shape of one spectral convolution for the double-precision reference.
/// A 1D problem is the nx = mx = 1 case.  `mx` counts stored X rows: modes_x
/// on the complex lane, modes_x/2+1 half-spectrum rows on the real lane.
struct RefShape {
  std::size_t K, O, nx, ny, mx, my;
  bool real;
};

std::vector<cd> roots(std::size_t n) {
  std::vector<cd> r(n);
  for (std::size_t j = 0; j < n; ++j) {
    r[j] = std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(j) /
                               static_cast<double>(n));
  }
  return r;
}

/// Direct truncated DFT -> CGEMM along hidden -> zero-padded inverse DFT of
/// one field u [K, nx, ny] with weights w [O, K]; returns [O, nx, ny] as
/// interleaved re/im doubles (complex lane) or real samples (real lane,
/// torch.fft.irfft completion of the stored X half-spectrum).
std::vector<double> reference_conv(const RefShape& s, std::span<const cd> u,
                                   std::span<const c32> w) {
  const auto ex = roots(s.nx);
  const auto ey = roots(s.ny);
  const std::size_t K = s.K, O = s.O, NX = s.nx, NY = s.ny, MX = s.mx, MY = s.my;

  std::vector<cd> a(K * MX * NY);  // X forward, first MX rows
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t r = 0; r < MX; ++r) {
      cd* dst = a.data() + (k * MX + r) * NY;
      for (std::size_t x = 0; x < NX; ++x) {
        const cd t = ex[(x * r) % NX];
        const cd* src = u.data() + (k * NX + x) * NY;
        for (std::size_t y = 0; y < NY; ++y) dst[y] += t * src[y];
      }
    }
  }
  std::vector<cd> f(K * MX * MY);  // Y forward, first MY bins
  for (std::size_t row = 0; row < K * MX; ++row) {
    for (std::size_t c = 0; c < MY; ++c) {
      cd acc = 0.0;
      for (std::size_t y = 0; y < NY; ++y) acc += a[row * NY + y] * ey[(y * c) % NY];
      f[row * MY + c] = acc;
    }
  }
  const std::size_t modes = MX * MY;
  std::vector<cd> m(O * modes);  // mixing along hidden
  for (std::size_t o = 0; o < O; ++o) {
    for (std::size_t k = 0; k < K; ++k) {
      const cd wk(w[o * K + k].re, w[o * K + k].im);
      for (std::size_t i = 0; i < modes; ++i) m[o * modes + i] += wk * f[k * modes + i];
    }
  }
  std::vector<cd> b(O * MX * NY);  // Y inverse, zero-padded
  for (std::size_t row = 0; row < O * MX; ++row) {
    for (std::size_t y = 0; y < NY; ++y) {
      cd acc = 0.0;
      for (std::size_t c = 0; c < MY; ++c) acc += m[row * MY + c] * std::conj(ey[(y * c) % NY]);
      b[row * NY + y] = acc / static_cast<double>(NY);
    }
  }
  // X inverse.  Real lane: v = Re(sum over the Hermitian completion), i.e.
  // DC (and a stored Nyquist row) contribute their real part once and every
  // other stored row contributes 2 Re(b e^{+i theta}).
  std::vector<double> v(O * NX * NY * (s.real ? 1 : 2));
  for (std::size_t o = 0; o < O; ++o) {
    for (std::size_t x = 0; x < NX; ++x) {
      for (std::size_t y = 0; y < NY; ++y) {
        cd acc = 0.0;
        double racc = 0.0;
        for (std::size_t r = 0; r < MX; ++r) {
          const cd t = b[(o * MX + r) * NY + y] * std::conj(ex[(x * r) % NX]);
          if (!s.real) {
            acc += t;
          } else {
            racc += (r == 0 || 2 * r == NX) ? t.real() : 2.0 * t.real();
          }
        }
        const std::size_t idx = (o * NX + x) * NY + y;
        if (s.real) {
          v[idx] = racc / static_cast<double>(NX);
        } else {
          v[2 * idx] = acc.real() / static_cast<double>(NX);
          v[2 * idx + 1] = acc.imag() / static_cast<double>(NX);
        }
      }
    }
  }
  return v;
}

std::vector<double> interleave(std::span<const c32> x) {
  std::vector<double> d(2 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    d[2 * i] = x[i].re;
    d[2 * i + 1] = x[i].im;
  }
  return d;
}

std::vector<cd> widen(std::span<const c32> x) {
  std::vector<cd> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) d[i] = cd(x[i].re, x[i].im);
  return d;
}

std::vector<cd> widen(std::span<const float> x) {
  std::vector<cd> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) d[i] = cd(x[i], 0.0);
  return d;
}

/// One spectral problem as the probes see it (2D is the general case).
struct Shape {
  bool is_2d = false;
  bool real = false;
  std::size_t B = 0, K = 0, nx = 1, ny = 0, modes_x = 1, modes_y = 0;

  [[nodiscard]] std::size_t spatial() const { return nx * ny; }
  [[nodiscard]] std::size_t mx() const { return real ? modes_x / 2 + 1 : modes_x; }
  [[nodiscard]] std::size_t my() const { return modes_y; }
  [[nodiscard]] RefShape ref() const { return {K, K, nx, ny, mx(), my(), real}; }
  [[nodiscard]] baseline::Spectral1dProblem p1() const { return {B, K, K, ny, modes_y}; }
  [[nodiscard]] baseline::Spectral2dProblem p2() const {
    return {B, K, K, nx, ny, modes_x, modes_y};
  }
};

Shape shape_of(const core::Fno1dConfig* c1, const core::Fno2dConfig* c2, std::size_t batch,
               bool real) {
  // The real lane runs its R2C transform along X, so it needs a 2D model.
  if (real && c2 == nullptr) throw std::invalid_argument("the real lane needs a 2D model");
  Shape s;
  s.real = real;
  s.B = batch;
  if (c2 != nullptr) {
    s.is_2d = true;
    s.K = c2->hidden;
    s.nx = c2->nx;
    s.ny = c2->ny;
    s.modes_x = c2->modes_x;
    s.modes_y = c2->modes_y;
  } else {
    s.K = c1->hidden;
    s.ny = c1->n;
    s.modes_y = c1->modes;
  }
  return s;
}

}  // namespace

double spectral_layer_rel_err(core::Fno1d* m1, core::Fno2d* m2, unsigned seed, bool real) {
  const Shape s = m2 != nullptr ? shape_of(nullptr, &m2->config(), 1, real)
                                : shape_of(&m1->config(), nullptr, 1, real);
  const std::size_t field = s.K * s.spatial();
  // Enough independent values that the error is a stable property of the
  // kernel rather than of one input.
  const std::size_t items = std::max<std::size_t>(1, 16384 / field);
  const std::span<const c32> w = m2 != nullptr ? m2->spectral_layers()[0].weights()
                                                : m1->spectral_layers()[0].weights();
  std::vector<c32> u(items * field), v(items * field);
  core::fill_random(u, seed * 7919u + 4u);
  std::vector<double> got;
  std::vector<cd> wide;
  if (real) {
    std::vector<float> ur(u.size()), vr(v.size());
    for (std::size_t i = 0; i < u.size(); ++i) ur[i] = u[i].re;
    m2->spectral_layers()[0].forward_real(ur, vr, items);
    got.assign(vr.begin(), vr.end());
    wide = widen(std::span<const float>(ur));
  } else if (m2 != nullptr) {
    m2->spectral_layers()[0].forward(u, v, items);
    got = interleave(v);
    wide = widen(std::span<const c32>(u));
  } else {
    m1->spectral_layers()[0].forward(u, v, items);
    got = interleave(v);
    wide = widen(std::span<const c32>(u));
  }
  std::vector<double> want;
  for (std::size_t i = 0; i < items; ++i) {
    const auto ref = reference_conv(s.ref(), std::span<const cd>(wide).subspan(i * field, field), w);
    want.insert(want.end(), ref.begin(), ref.end());
  }
  return rel_l2(got, want);
}

namespace {

/// Engine + registered model + one session, as a user would set them up.
struct Setup {
  std::unique_ptr<core::Engine> engine;
  std::optional<core::Session> session;

  Setup(const core::Fno1dConfig* c1, const core::Fno2dConfig* c2, std::size_t batch,
        int threads) {
    core::EngineOptions eo;
    eo.threads = threads;
    engine = std::make_unique<core::Engine>(eo);
    const auto h = c2 != nullptr ? engine->register_model(*c2) : engine->register_model(*c1);
    session.emplace(engine->create_session(h, batch));
  }
};

/// Model inputs and outputs of one batch, on whichever lane the workload uses.
struct Io {
  bool real = false;
  std::size_t batch = 0;
  std::vector<c32> u, v;
  std::vector<float> ur, vr;

  void run(core::Session& s) {
    if (real) {
      s.run_real(ur, vr, batch);
    } else {
      s.run(u, v, batch);
    }
  }
  /// Bitwise comparison of this output with an earlier copy of it.
  [[nodiscard]] bool same_output(const Io& earlier) const {
    return std::memcmp(v.data(), earlier.v.data(), v.size() * sizeof(c32)) == 0 &&
           std::memcmp(vr.data(), earlier.vr.data(), vr.size() * sizeof(float)) == 0;
  }
};

Io make_io(const ComputeSpec& s, unsigned seed) {
  Io io;
  io.real = s.real;
  io.batch = s.batch;
  const std::size_t in = s.is_2d ? s.c2.in_channels * s.c2.nx * s.c2.ny : s.c1.in_channels * s.c1.n;
  const std::size_t out =
      s.is_2d ? s.c2.out_channels * s.c2.nx * s.c2.ny : s.c1.out_channels * s.c1.n;
  io.u.resize(s.batch * in);
  io.v.resize(s.batch * out);
  if (s.is_2d) {
    core::darcy_batch(io.u, s.batch, s.c2.in_channels, s.c2.nx, s.c2.ny, seed);
  } else {
    core::burgers_batch(io.u, s.batch, s.c1.in_channels, s.c1.n, seed);
  }
  if (s.real) {
    io.ur.resize(io.u.size());
    for (std::size_t i = 0; i < io.u.size(); ++i) io.ur[i] = io.u[i].re;
    io.vr.resize(io.v.size());
  }
  return io;
}

// ------------------------------------------------------------- probes

/// The pipelines' own stage names, folded so 1D and 2D share one
/// vocabulary: the 2D Y-axis stages carry the 1D names, and the 2D X-axis
/// stages (no 1D counterpart) fall into `rest`.
std::string common_stage(const std::string& s) {
  if (s == "fft2d") return "fft";
  if (s == "ifft2d") return "ifft";
  if (s == "fft-y-trunc") return "fft-trunc";
  if (s == "ifft-y-pad") return "ifft-pad";
  if (s == "fft-x-trunc" || s == "ifft-x-pad") return "";
  return s;
}

struct VariantRow {
  fused::Variant v;
  const char* name;
  std::vector<const char*> stages;
};

const VariantRow kRows[] = {
    {fused::Variant::PyTorch, "baseline", {"fft", "truncate-copy", "cgemm", "pad-copy", "ifft"}},
    {fused::Variant::FftOpt, "fused.FftOpt", {"fft-trunc", "cgemm", "ifft-pad"}},
    {fused::Variant::FusedFftGemm, "fused.FusedFftGemm", {"fused-fft-cgemm", "ifft-pad"}},
    {fused::Variant::FusedGemmIfft, "fused.FusedGemmIfft", {"fft-trunc", "fused-cgemm-ifft"}},
    {fused::Variant::FullyFused, "fused.FullyFused", {"fused-fft-cgemm-ifft"}},
};

/// Either pipeline flavour behind one call.
struct Pipe {
  std::unique_ptr<fused::SpectralPipeline1d> p1;
  std::unique_ptr<fused::SpectralPipeline2d> p2;

  void run(const Shape& s, const std::vector<c32>& u, const std::vector<float>& ur,
           const std::vector<c32>& w, std::vector<c32>& v, std::vector<float>& vr) {
    if (s.real) {
      p2->run_batched_real(ur, w, vr, s.B);
    } else if (p1) {
      p1->run_batched(u, w, v, s.B);
    } else {
      p2->run_batched(u, w, v, s.B);
    }
  }
  [[nodiscard]] const trace::PipelineCounters& counters() const {
    return p1 ? p1->counters() : p2->counters();
  }
};

}  // namespace

void probe_compute_layers(const core::Fno1dConfig* c1, const core::Fno2dConfig* c2,
                          std::size_t batch, bool real, int threads, const Args& args,
                          Result& out) {
  const ProbeBudget pb = probe_budget(args);
  const Shape s = shape_of(c1, c2, batch, real);
  const std::size_t field_in = s.K * s.spatial();

  // runtime: plan-cache traffic of one cold set-up (engine, model,
  // session, first forward).
  fft::plan_cache_clear();
  fft::plan_cache_reset_stats();
  Setup setup(c1, c2, batch, threads);
  {
    const std::size_t in_ch = c2 != nullptr ? c2->in_channels : c1->in_channels;
    const std::size_t out_ch = c2 != nullptr ? c2->out_channels : c1->out_channels;
    std::vector<c32> mu(batch * in_ch * s.spatial()), mv(batch * out_ch * s.spatial());
    core::fill_random(mu, args.seed);
    if (real) {
      std::vector<float> mur(mu.size()), mvr(mv.size());
      for (std::size_t i = 0; i < mu.size(); ++i) mur[i] = mu[i].re;
      setup.session->run_real(mur, mvr, batch);
    } else {
      setup.session->run(mu, mv, batch);
    }
  }
  const auto pcs = fft::plan_cache_stats();

  // Probe operands: random hidden fields and weights from the seed.
  std::vector<c32> u(batch * field_in), v(batch * field_in), w(s.K * s.K);
  std::vector<float> ur, vr;
  core::fill_random(u, args.seed * 7919u + 1u);
  core::fill_random(w, args.seed * 7919u + 2u);
  if (real) {
    ur.resize(u.size());
    vr.resize(v.size());
    for (std::size_t i = 0; i < u.size(); ++i) ur[i] = u[i].re;
  }
  const auto ref =
      real ? reference_conv(s.ref(), widen(std::span<const float>(ur).first(field_in)), w)
           : reference_conv(s.ref(), widen(std::span<const c32>(u).first(field_in)), w);
  auto item0_err = [&] {
    return real ? rel_l2(std::vector<double>(vr.begin(), vr.begin() + field_in), ref)
                : rel_l2(interleave(std::span<const c32>(v).first(field_in)), ref);
  };

  // baseline + fused ladder.  The rows run round-robin, so every row
  // samples the same moments of outside load; each reports its fastest
  // repetition with that repetition's stage split.
  struct Row {
    const VariantRow* def;
    Pipe pipe;
    double rel_err = 0.0;
    double best = INFINITY;
    std::map<std::string, double> stages;
  };
  std::vector<Row> rows;
  for (const VariantRow& def : kRows) {
    Row row{&def, {}, 0.0, INFINITY, {}};
    if (s.is_2d) {
      row.pipe.p2 = fused::make_pipeline2d(def.v, s.p2(), real);
    } else {
      row.pipe.p1 = fused::make_pipeline1d(def.v, s.p1(), real);
    }
    row.pipe.run(s, u, ur, w, v, vr);  // warm-up, and the output checked here
    row.rel_err = item0_err();
    rows.push_back(std::move(row));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const double budget = pb.budget_s * static_cast<double>(rows.size());
  for (std::size_t round = 0; round < pb.min_reps || seconds_since(t0) < budget; ++round) {
    for (Row& row : rows) {
      runtime::Timer t;
      row.pipe.run(s, u, ur, w, v, vr);
      const double wall = t.seconds();
      if (wall >= row.best) continue;
      row.best = wall;
      row.stages.clear();
      for (const auto& st : row.pipe.counters().stages()) {
        const std::string c = common_stage(st.name);
        if (!c.empty()) row.stages[c] += st.seconds;
      }
    }
  }

  const fused::Variant auto_v =
      s.is_2d ? fused::resolve_variant(fused::Variant::Auto, s.p2(), real)
              : fused::resolve_variant(fused::Variant::Auto, s.p1(), real);
  std::size_t auto_index = 0;
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    Row& row = rows[ri];
    const double ms = row.best * 1e3;
    const auto total = row.pipe.counters().total();
    const std::string pre = row.def->name;
    out.add(pre + ".ms", ms, "ms");
    double named = 0.0;
    for (const char* name : row.def->stages) {
      out.add(pre + "." + name + ".ms", row.stages[name] * 1e3, "ms");
      named += row.stages[name];
    }
    if (ri != 0) out.add(pre + ".rest.ms", (row.best - named) * 1e3, "ms");
    out.add(pre + ".mbytes", static_cast<double>(total.bytes_total()) * 1e-6, "MB");
    out.add(pre + ".gflops", static_cast<double>(total.flops) / row.best * 1e-9, "GFLOP/s");
    out.add(pre + ".a100_ms",
            gpusim::predict(gpusim::GpuSpec{}, row.pipe.counters()).total_seconds * 1e3, "ms");
    out.add(pre + ".rel_err", row.rel_err, "ratio");
    if (ri != 0) out.add(pre + ".vs_baseline", rows[0].best / row.best, "x");
    if (row.def->v == auto_v) auto_index = ri;
  }
  Pipe& auto_pipe = rows[auto_index].pipe;
  out.add("fused.auto_variant", static_cast<double>(auto_index), "index");
  for (const int t : {2, 4}) {
    runtime::set_thread_count(t);
    const double ms = fastest_run(pb, [&] { auto_pipe.run(s, u, ur, w, v, vr); }) * 1e3;
    out.add("fused.auto.ms_t" + std::to_string(t), ms, "ms");
  }
  runtime::set_thread_count(threads);

  // fft: the truncating forward / zero-padding inverse plans on this
  // problem's fields (the lane's own transforms: R2C/C2R on X when real).
  {
    const std::size_t fields = s.B * s.K;
    std::vector<c32> spec(fields * s.mx() * s.my());
    double fwd = 0.0, inv = 0.0;
    if (!s.is_2d) {
      const fft::FftPlan f({s.ny, fft::Direction::Forward, s.my(), 0});
      const fft::FftPlan i({s.ny, fft::Direction::Inverse, 0, s.my()});
      fwd = fastest_run(pb, [&] { f.execute(u, spec, fields); });
      inv = fastest_run(pb, [&] { i.execute(spec, v, fields); });
    } else if (real) {
      std::vector<c32> xs(fields * s.mx() * s.ny);
      const fft::FftPlan fy({s.ny, fft::Direction::Forward, s.my(), 0});
      const fft::FftPlan iy({s.ny, fft::Direction::Inverse, 0, s.my()});
      fwd = fastest_run(pb, [&] {
        fft::rfft2d_x_stage(s.nx, s.mx(), ur.data(), xs.data(), fields, s.ny);
        fy.execute(xs, spec, fields * s.mx());
      });
      inv = fastest_run(pb, [&] {
        iy.execute(spec, xs, fields * s.mx());
        fft::irfft2d_x_stage(s.nx, s.mx(), xs.data(), vr.data(), fields, s.ny);
      });
    } else {
      const fft::FftPlan2d f({s.nx, s.ny, fft::Direction::Forward, s.mx(), s.my()});
      const fft::FftPlan2d i({s.nx, s.ny, fft::Direction::Inverse, s.mx(), s.my()});
      fwd = fastest_run(pb, [&] { f.execute(u, spec, fields); });
      inv = fastest_run(pb, [&] { i.execute(spec, v, fields); });
    }
    out.add("fft.forward_ms", fwd * 1e3, "ms");
    out.add("fft.inverse_ms", inv * 1e3, "ms");
  }

  // gemm: the spectral mixing GEMM, mixed[b] [K x modes] = W [K x K] *
  // freq[b] [K x modes], as one strided-batched call.
  {
    const std::size_t modes = s.mx() * s.my();
    std::vector<c32> freq(s.B * s.K * modes), mixed(s.B * s.K * modes);
    core::fill_random(freq, args.seed * 7919u + 3u);
    gemm::BatchedStrides st;
    st.b = static_cast<std::ptrdiff_t>(s.K * modes);
    st.c = static_cast<std::ptrdiff_t>(s.K * modes);
    const double sec = fastest_run(pb, [&] {
      gemm::cgemm_batched(s.K, modes, s.K, c32{1.0f, 0.0f}, w.data(), s.K, freq.data(), modes,
                          c32{0.0f, 0.0f}, mixed.data(), modes, s.B, st);
    });
    out.add("gemm.cgemm_ms", sec * 1e3, "ms");
    out.add("gemm.cgemm_gflops",
            static_cast<double>(trace::cgemm_flops(s.B * modes, s.K, s.K)) / sec * 1e-9,
            "GFLOP/s");
  }

  // core: the model's own first spectral layer and pointwise residual at
  // the workload batch.
  {
    core::Fno1d* m1 = setup.session->model1d();
    core::Fno2d* m2 = setup.session->model2d();
    const core::PointwiseLinear& res =
        m2 != nullptr ? m2->residual_layers()[0] : m1->residual_layers()[0];
    auto spectral = [&] {
      if (real) {
        m2->spectral_layers()[0].forward_real(ur, vr, s.B);
      } else if (m2 != nullptr) {
        m2->spectral_layers()[0].forward(u, v, s.B);
      } else {
        m1->spectral_layers()[0].forward(u, v, s.B);
      }
    };
    auto pointwise = [&] {
      if (real) {
        res.forward_real(ur, vr, s.B, s.spatial());
      } else {
        res.forward(u, v, s.B, s.spatial());
      }
    };
    out.add("core.spectral_conv_ms", fastest_run(pb, spectral) * 1e3, "ms");
    out.add("core.pointwise_ms", fastest_run(pb, pointwise) * 1e3, "ms");
  }

  out.add("runtime.plan_cache_hits", static_cast<double>(pcs.hits), "count");
  out.add("runtime.plan_cache_misses", static_cast<double>(pcs.misses), "count");
}

Result run_compute(const Args& args) {
  const ComputeSpec* spec = nullptr;
  for (const auto& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::invalid_argument("not a compute workload: " + args.workload);
  const core::Fno1dConfig* c1 = spec->is_2d ? nullptr : &spec->c1;
  const core::Fno2dConfig* c2 = spec->is_2d ? &spec->c2 : nullptr;

  Result r;
  r.threads = kComputeThreads;
  if (args.trace) {
    probe_compute_layers(c1, c2, spec->batch, spec->real, kComputeThreads, args, r);
    const std::vector<std::uint32_t> dims =
        spec->is_2d ? std::vector<std::uint32_t>{1, static_cast<std::uint32_t>(spec->c2.nx),
                                                 static_cast<std::uint32_t>(spec->c2.ny)}
                    : std::vector<std::uint32_t>{1, static_cast<std::uint32_t>(spec->c1.n)};
    probe_codec(dims, spec->real, args, r);
    probe_serving_layers(args, r);
    return r;
  }

  Io io = make_io(*spec, args.seed);

  // Set-up: engine, model registration and session creation (FFT plans,
  // packed weights, workspaces) from a cold plan cache; the median of
  // several.  The first forward costs what any forward costs, so it is
  // warm-up, not set-up.
  const int setup_reps = args.smoke ? 1 : 15;
  std::vector<double> setup_s;
  std::optional<Setup> st;
  for (int i = 0; i < setup_reps; ++i) {
    st.reset();
    fft::plan_cache_clear();
    const auto t0 = std::chrono::steady_clock::now();
    st.emplace(c1, c2, spec->batch, kComputeThreads);
    setup_s.push_back(seconds_since(t0));
  }
  io.run(*st->session);
  ++r.attempted;
  const Io first = io;

  for (int i = 0; i < (args.smoke ? 1 : 3); ++i) {
    io.run(*st->session);
    ++r.attempted;
  }
  std::vector<double> fwd_ms;
  const double seconds = args.smoke ? std::min(args.seconds, 2.0) : args.seconds;
  const auto t0 = std::chrono::steady_clock::now();
  while (fwd_ms.size() < 8 || seconds_since(t0) < seconds) {
    runtime::Timer t;
    io.run(*st->session);
    fwd_ms.push_back(t.seconds() * 1e3);
    ++r.attempted;
  }
  const double elapsed = seconds_since(t0);
  const double rss_mb = peak_rss_mb();
  if (!io.same_output(first)) {
    r.fail("last forward differs bitwise from the first");
    ++r.failed;
  }

  const double err = spectral_layer_rel_err(st->session->model1d(), st->session->model2d(),
                                            args.seed, spec->real);
  if (!(err < 1e-4)) r.fail("spectral_rel_err " + std::to_string(err) + " >= 1e-4");

  r.add("setup_s", median(setup_s), "s");
  r.add("latency_ms_p1", quantile(fwd_ms, 0.01), "ms");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("spectral_rel_err", err, "ratio");
  std::fprintf(stderr, "%s: %zu timed forwards of batch %zu in %.2f s, p50 %.3f ms, p90 %.3f ms\n",
               spec->name, fwd_ms.size(), spec->batch, elapsed, quantile(fwd_ms, 0.5),
               quantile(fwd_ms, 0.9));
  return r;
}

}  // namespace tfno_suite
