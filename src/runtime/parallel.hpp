// Shared-memory parallel runtime.
//
// A thin, testable veneer over OpenMP (per the hpc-parallel guides).  All
// library parallelism funnels through parallel_for so thread counts are
// controlled in one place and the kernels remain deterministic: iteration i
// always performs the same arithmetic regardless of the schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace turbofno::runtime {

/// Number of worker threads the runtime will use (OpenMP max threads, or 1
/// when built without OpenMP).
int thread_count() noexcept;

/// Override the worker count for subsequent parallel regions.  `n <= 0`
/// restores the hardware default.  Primarily for tests and benchmarks.
void set_thread_count(int n) noexcept;

/// True when the library was compiled with OpenMP support.
bool has_openmp() noexcept;

namespace detail {
void parallel_for_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& body);
}

/// Runs body(lo, hi) over a partition of [begin, end).  Chunks are at least
/// `grain` iterations; a range smaller than `grain` runs inline on the
/// calling thread (no fork overhead for tiny problems), and so does a call
/// from inside another parallel_for's body (a kernel run on one worker's
/// slab).  The call is
/// synchronous, so the body travels by reference: std::function keeps the
/// reference inline and no call heap-allocates a copy of the closure.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
  detail::parallel_for_impl(begin, end, grain,
                            std::function<void(std::size_t, std::size_t)>(std::ref(body)));
}

/// Element-wise convenience: body(i) for i in [begin, end).
template <class Body>
void parallel_for_each(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
  parallel_for(begin, end, grain, [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Static partition helper: splits [0, n) into `parts` near-equal ranges.
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] std::size_t size() const noexcept { return hi - lo; }
};
Range partition(std::size_t n, std::size_t parts, std::size_t which) noexcept;

}  // namespace turbofno::runtime
