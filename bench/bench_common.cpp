#include "bench_common.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/workload.hpp"
#include "gpusim/pipeline_model.hpp"
#include "runtime/timer.hpp"
#include "trace/csv.hpp"
#include "trace/table.hpp"

namespace turbofno::bench {

namespace {

// --json state: path from the last Options::parse plus every figure recorded
// so far.  The file is rewritten after each figure so an interrupted sweep
// still leaves valid JSON on disk.
std::string g_json_path;                                                  // NOLINT
std::vector<std::pair<std::string, std::vector<PointResult>>> g_figures;  // NOLINT

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Bad flags exit 2 (usage error) instead of running with a silent default:
// best-of-0 timing would report 1e300 s, and a --json without a path would
// drop the artifact.
[[noreturn]] void usage_error(const char* prog, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\nusage: %s [--full] [--reps N>=1] [--json PATH]\n", prog,
               msg.c_str(), prog);
  std::exit(2);
}

}  // namespace

Options Options::parse(int argc, char** argv) {
  Options o;
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) o.full = true;
    if (std::strcmp(argv[i], "--reps") == 0) {
      const char* v = i + 1 < argc ? argv[++i] : "";
      char* end = nullptr;
      errno = 0;
      const unsigned long reps = std::strtoul(v, &end, 10);
      if (*v < '0' || *v > '9' || *end != '\0' || errno != 0 || reps == 0) {
        usage_error(prog, std::string("--reps needs a positive integer, got '") + v + "'");
      }
      o.reps = static_cast<std::size_t>(reps);
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0' || std::strncmp(argv[i + 1], "--", 2) == 0) {
        usage_error(prog, "--json needs an output path");
      }
      o.json = argv[++i];
    }
  }
  g_json_path = o.json;
  g_figures.clear();
  return o;
}

void record_json(const std::string& title, const std::vector<PointResult>& points) {
  if (g_json_path.empty()) return;
  g_figures.emplace_back(title, points);

  std::FILE* f = std::fopen(g_json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open --json path '%s'\n", g_json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"figures\": [\n");
  for (std::size_t fi = 0; fi < g_figures.size(); ++fi) {
    const auto& [fig_title, fig_points] = g_figures[fi];
    std::fprintf(f, "    {\n      \"title\": \"%s\",\n      \"points\": [\n",
                 json_escape(fig_title).c_str());
    for (std::size_t pi = 0; pi < fig_points.size(); ++pi) {
      const auto& p = fig_points[pi];
      std::fprintf(f, "        {\"label\": \"%s\", \"variants\": [\n",
                   json_escape(p.label).c_str());
      for (std::size_t vi = 0; vi < p.variants.size(); ++vi) {
        const auto& v = p.variants[vi];
        const double gflops =
            v.seconds > 0.0 ? static_cast<double>(v.flops) / v.seconds * 1e-9 : 0.0;
        std::fprintf(f,
                     "          {\"name\": \"%s\", \"spectral_path\": \"%s\", "
                     "\"seconds\": %.9g, \"gflops\": %.6g, "
                     "\"model_seconds\": %.9g, \"bytes\": %llu, \"flops\": %llu}%s\n",
                     json_escape(v.name).c_str(), json_escape(v.spectral_path).c_str(),
                     v.seconds, gflops, v.model_seconds,
                     static_cast<unsigned long long>(v.bytes),
                     static_cast<unsigned long long>(v.flops),
                     vi + 1 < p.variants.size() ? "," : "");
      }
      std::fprintf(f, "        ]}%s\n", pi + 1 < fig_points.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", fi + 1 < g_figures.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

const gpusim::GpuSpec& a100() {
  static const gpusim::GpuSpec spec{};
  return spec;
}

namespace {

VariantResult measure(fused::SpectralPipeline1d* p1, fused::SpectralPipeline2d* p2,
                      fused::Variant variant, std::span<const c32> u, std::span<const c32> w,
                      std::span<c32> v, std::size_t reps) {
  VariantResult r;
  r.variant = variant;
  r.name = std::string(fused::variant_name(variant));
  auto body = [&] {
    if (p1 != nullptr) {
      p1->run(u, w, v);
    } else {
      p2->run(u, w, v);
    }
  };
  r.seconds = runtime::time_best_of(reps, body);
  const trace::PipelineCounters& counters = p1 != nullptr ? p1->counters() : p2->counters();
  const auto total = counters.total();
  r.bytes = total.bytes_total();
  r.flops = total.flops;
  r.launches = total.kernel_launches;
  r.model_seconds = gpusim::predict(a100(), counters).total_seconds;
  return r;
}

}  // namespace

PointResult run_point_1d(const baseline::Spectral1dProblem& prob,
                         const std::vector<fused::Variant>& variants, std::size_t reps) {
  AlignedBuffer<c32> u(prob.input_elems());
  AlignedBuffer<c32> w(prob.weight_elems());
  AlignedBuffer<c32> v(prob.output_elems());
  core::fill_random(u.span(), 0xbeefu + static_cast<unsigned>(prob.hidden));
  core::fill_random(w.span(), 0xfeedu);

  PointResult pr;
  for (const auto var : variants) {
    auto pipe = fused::make_pipeline1d(var, prob);
    pr.variants.push_back(measure(pipe.get(), nullptr, var, u.span(), w.span(), v.span(), reps));
  }
  return pr;
}

namespace {

// Complex-vs-real lane measurement: reuses measure() for the complex
// baseline, then times the same ladder row's run_batched_real on float
// buffers.  The real row reports the pipeline's own traffic counters, so
// the JSON rows carry the halved half-spectrum bytes/flops too.
void fill_random_real(std::span<float> x, unsigned seed) {
  // Derive the real samples from the same generator the complex fills use
  // (real parts only) so the two lanes see comparable signal content.
  AlignedBuffer<c32> tmp(x.size());
  core::fill_random(tmp.span(), seed);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = tmp[i].re;
}

template <typename Pipe>
VariantResult measure_real(Pipe& pipe, fused::Variant variant, std::span<const float> u,
                           std::span<const c32> w, std::span<float> v, std::size_t batch,
                           std::size_t reps) {
  VariantResult r;
  r.variant = variant;
  r.name = std::string(fused::variant_name(variant)) + " (real)";
  r.spectral_path = "real";
  r.seconds = runtime::time_best_of(reps, [&] { pipe.run_batched_real(u, w, v, batch); });
  const auto total = pipe.counters().total();
  r.bytes = total.bytes_total();
  r.flops = total.flops;
  r.launches = total.kernel_launches;
  r.model_seconds = gpusim::predict(a100(), pipe.counters()).total_seconds;
  return r;
}

}  // namespace

PointResult run_point_1d_real(const baseline::Spectral1dProblem& prob, fused::Variant variant,
                              std::size_t reps) {
  AlignedBuffer<c32> u(prob.input_elems());
  AlignedBuffer<c32> w(prob.weight_elems());
  AlignedBuffer<c32> v(prob.output_elems());
  core::fill_random(u.span(), 0xbeefu + static_cast<unsigned>(prob.hidden));
  core::fill_random(w.span(), 0xfeedu);

  PointResult pr;
  auto cpipe = fused::make_pipeline1d(variant, prob);
  pr.variants.push_back(measure(cpipe.get(), nullptr, variant, u.span(), w.span(), v.span(), reps));

  AlignedBuffer<float> ur(prob.input_elems());
  AlignedBuffer<float> vr(prob.output_elems());
  fill_random_real(ur.span(), 0xbeefu + static_cast<unsigned>(prob.hidden));
  auto rpipe = fused::make_pipeline1d(variant, prob, /*real_input=*/true);
  pr.variants.push_back(
      measure_real(*rpipe, variant, ur.span(), w.span(), vr.span(), prob.batch, reps));
  return pr;
}

PointResult run_point_2d_real(const baseline::Spectral2dProblem& prob, fused::Variant variant,
                              std::size_t reps) {
  AlignedBuffer<c32> u(prob.input_elems());
  AlignedBuffer<c32> w(prob.weight_elems());
  AlignedBuffer<c32> v(prob.output_elems());
  core::fill_random(u.span(), 0xabcdu + static_cast<unsigned>(prob.hidden));
  core::fill_random(w.span(), 0xfeedu);

  PointResult pr;
  auto cpipe = fused::make_pipeline2d(variant, prob);
  pr.variants.push_back(measure(nullptr, cpipe.get(), variant, u.span(), w.span(), v.span(), reps));

  AlignedBuffer<float> ur(prob.input_elems());
  AlignedBuffer<float> vr(prob.output_elems());
  fill_random_real(ur.span(), 0xabcdu + static_cast<unsigned>(prob.hidden));
  auto rpipe = fused::make_pipeline2d(variant, prob, /*real_input=*/true);
  pr.variants.push_back(
      measure_real(*rpipe, variant, ur.span(), w.span(), vr.span(), prob.batch, reps));
  return pr;
}

PointResult run_point_2d(const baseline::Spectral2dProblem& prob,
                         const std::vector<fused::Variant>& variants, std::size_t reps) {
  AlignedBuffer<c32> u(prob.input_elems());
  AlignedBuffer<c32> w(prob.weight_elems());
  AlignedBuffer<c32> v(prob.output_elems());
  core::fill_random(u.span(), 0xabcdu + static_cast<unsigned>(prob.hidden));
  core::fill_random(w.span(), 0xfeedu);

  PointResult pr;
  for (const auto var : variants) {
    auto pipe = fused::make_pipeline2d(var, prob);
    pr.variants.push_back(measure(nullptr, pipe.get(), var, u.span(), w.span(), v.span(), reps));
  }
  return pr;
}

void print_figure_table(const std::string& title, const std::vector<PointResult>& points) {
  std::printf("%s\n", title.c_str());
  if (points.empty()) return;

  std::vector<std::string> header = {"point", points[0].variants[0].name + "(ms)"};
  for (std::size_t i = 1; i < points[0].variants.size(); ++i) {
    header.push_back(points[0].variants[i].name + " cpu%");
    header.push_back(points[0].variants[i].name + " a100%");
  }
  trace::TextTable table(header);
  trace::CsvWriter csv(header);
  for (const auto& p : points) {
    std::vector<std::string> row = {p.label, trace::TextTable::fmt(p.variants[0].seconds * 1e3, 3)};
    for (std::size_t i = 1; i < p.variants.size(); ++i) {
      row.push_back(trace::TextTable::fmt(p.perf_vs_base(i), 1));
      row.push_back(trace::TextTable::fmt(p.model_perf_vs_base(i), 1));
    }
    csv.add_row(row);
    table.add_row(std::move(row));
  }
  std::printf("%s", table.str().c_str());
  std::printf("(100%% = PyTorch parity; >100%% = faster than PyTorch)\n\n");

  record_json(title, points);

  // Optional machine-readable copy: set TURBOFNO_CSV_DIR to enable.
  const std::string dir = trace::CsvWriter::env_dir();
  if (!dir.empty()) {
    std::string name = title.substr(0, title.find(':'));
    for (auto& ch : name) {
      if (ch == ' ' || ch == '(' || ch == ')') ch = '_';
    }
    csv.write_to(dir, name);
  }
}

void print_summary(const std::vector<PointResult>& points, std::size_t variant_index) {
  if (points.empty()) return;
  double sum = 0.0;
  double best = 0.0;
  for (const auto& p : points) {
    const double s = p.perf_vs_base(variant_index);
    sum += s;
    best = std::max(best, s);
  }
  std::printf("summary: %s vs PyTorch — average %.1f%%, max %.1f%% (measured, CPU substrate)\n\n",
              points[0].variants[variant_index].name.c_str(), sum / points.size(), best);
}

}  // namespace turbofno::bench
