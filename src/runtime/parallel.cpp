#include "runtime/parallel.hpp"

#include <algorithm>
#include <atomic>

#if TURBOFNO_HAVE_OPENMP
#include <omp.h>
#endif

namespace turbofno::runtime {

namespace {
std::atomic<int> g_thread_override{0};
}  // namespace

int thread_count() noexcept {
  const int ov = g_thread_override.load(std::memory_order_relaxed);
  if (ov > 0) return ov;
#if TURBOFNO_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_thread_count(int n) noexcept {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

bool has_openmp() noexcept {
#if TURBOFNO_HAVE_OPENMP
  return true;
#else
  return false;
#endif
}

Range partition(std::size_t n, std::size_t parts, std::size_t which) noexcept {
  if (parts == 0) return {0, n};
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  const std::size_t lo = which * base + std::min(which, rem);
  const std::size_t hi = lo + base + (which < rem ? 1 : 0);
  return {lo, hi};
}

namespace detail {

void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const int nt = thread_count();
  const std::size_t max_parts = (n + g - 1) / g;
  const std::size_t parts = std::min<std::size_t>(static_cast<std::size_t>(nt), max_parts);

  if (parts <= 1) {
    body(begin, end);
    return;
  }

#if TURBOFNO_HAVE_OPENMP
  // Nested regions are inactive (one active level): a parallel_for inside
  // a worker's body would run its parts one after another anyway, so it
  // runs as one inline chunk instead, without forking a team of one.
  if (omp_in_parallel()) {
    body(begin, end);
    return;
  }
#pragma omp parallel for schedule(static) num_threads(static_cast<int>(parts))
  for (std::size_t p = 0; p < parts; ++p) {
    const Range r = partition(n, parts, p);
    if (r.size() != 0) body(begin + r.lo, begin + r.hi);
  }
#else
  body(begin, end);
#endif
}

}  // namespace detail

}  // namespace turbofno::runtime
