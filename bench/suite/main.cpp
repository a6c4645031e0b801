// tfno_suite — the repository benchmark program.
//
//   tfno_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Runs one workload and prints a human-readable summary, a context line
// ({"context": {...}} with the host block), and as the last line the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "suite.hpp"

namespace {

using tfno_suite::Args;
using tfno_suite::Result;

const char* const kWorkloads[] = {"fno2d_c2c", "fno1d_c2c", "fno2d_real", "serve_router"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tfno_suite: %s\nusage: tfno_suite --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\nworkloads:",
               why);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Parses a whole-string number in [lo, hi]; anything else is a usage error.
double number(const char* flag, const char* s, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= lo && v <= hi)) {
    usage((std::string("bad value for ") + flag + ": '" + s + "'").c_str());
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      const double s = number("--seed", val, 0, 4294967295.0);
      if (s != std::floor(s)) usage("--seed must be a whole number");
      a.seed = static_cast<unsigned>(s);
    } else if (flag == "--seconds") {
      a.seconds = number("--seconds", val, 0.1, 600);
    } else if (flag == "--trace") {
      const double t = number("--trace", val, 0, 1);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage(a.workload.empty() ? "--workload is required" : "unknown workload");
  return a;
}

void print(const Args& a, Result& r) {
  std::printf("# %s seed=%u seconds=%g trace=%d%s\n", a.workload.c_str(), a.seed, a.seconds,
              a.trace ? 1 : 0, a.smoke ? " smoke" : "");
  for (auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail(m.name + " is not finite");
      m.value = 0.0;
    }
    std::printf("#   %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %u, \"seconds\": %g, "
              "\"trace\": %d, \"smoke\": %s, \"host\": %s}}\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              a.smoke ? "true" : "false", tfno_suite::host_json(r.threads).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // A fixed threshold keeps glibc from raising it after the first large
  // free, so every set-up repetition maps fresh memory, as the first
  // set-up of a new process does, instead of only the first one.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    Result r = args.workload == "serve_router" ? tfno_suite::run_serve_router(args)
                                               : tfno_suite::run_compute(args);
    print(args, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfno_suite: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
