// Statistics helpers and the host block of every result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "suite.hpp"
#include "tensor/simd.hpp"

namespace tfno_suite {

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "correctness: %s\n", why.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double rel_l2(std::span<const double> a, std::span<const double> b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  if (a.size() != b.size() || den == 0.0) return INFINITY;
  return std::sqrt(num / den);
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// "model name" and the vector-ISA flags of the first /proc/cpuinfo entry.
void cpu_info(std::string& model, std::string& isa) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line) && (model.empty() || isa.empty())) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string val = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model.empty()) model = val;
    if (key == "flags" && isa.empty()) {
      std::istringstream flags(val);
      std::string flag;
      while (flags >> flag) {
        if (flag == "avx2" || flag == "fma" || flag.rfind("avx512", 0) == 0) {
          isa += (isa.empty() ? "" : " ") + flag;
        }
      }
      if (isa.empty()) isa = "none";
    }
  }
}

/// Size of the cpu0 cache at `level` (unified or data), e.g. "2048K".
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string lv = read_first_line(dir + "/level");
    if (lv.empty()) break;
    const std::string type = read_first_line(dir + "/type");
    if (std::stoi(lv) == level && type != "Instruction") return read_first_line(dir + "/size");
  }
  return "unknown";
}

}  // namespace

std::string host_json(int threads) {
  std::string model, isa;
  cpu_info(model, isa);
  std::ostringstream o;
  o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"threads\": " << threads
    << ", \"cpu\": " << json_string(model) << ", \"isa\": " << json_string(isa)
    << ", \"l2\": " << json_string(cache_size(2)) << ", \"l3\": " << json_string(cache_size(3))
    << ", \"simd\": " << json_string(turbofno::simd::active_backend())
    << ", \"build_type\": " << json_string(TFNO_SUITE_BUILD_TYPE)
    << ", \"compiler\": " << json_string(TFNO_SUITE_COMPILER)
    << ", \"git_sha\": " << json_string(TFNO_SUITE_GIT_SHA)
    << ", \"loadavg\": " << json_string(read_first_line("/proc/loadavg")) << "}";
  return o.str();
}

}  // namespace tfno_suite
