// Parallel runtime: partitioning, coverage, grain behaviour, overrides.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"

namespace turbofno::runtime {
namespace {

TEST(Partition, CoversRangeWithoutOverlap) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t parts : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (std::size_t p = 0; p < parts; ++p) {
        const Range r = partition(n, parts, p);
        EXPECT_EQ(r.lo, prev_hi);
        prev_hi = r.hi;
        covered += r.size();
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_hi, n);
    }
  }
}

TEST(Partition, BalancedWithinOne) {
  const std::size_t n = 103;
  const std::size_t parts = 8;
  std::size_t mn = n;
  std::size_t mx = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const Range r = partition(n, parts, p);
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  bool called = false;
  parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, GrainLimitsSplitCount) {
  // With grain >= n the body must run exactly once, inline.
  std::atomic<int> calls{0};
  parallel_for(0, 100, 1000, [&](std::size_t lo, std::size_t hi) {
    calls.fetch_add(1);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, SumMatchesSerial) {
  const std::size_t n = 1 << 16;
  std::vector<double> x(n);
  std::iota(x.begin(), x.end(), 0.0);
  std::atomic<long long> sum{0};
  parallel_for_each(0, n, 256, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(x[i]), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadCount, OverrideAndRestore) {
  const int original = thread_count();
  EXPECT_GE(original, 1);
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), original);
}

TEST(ThreadCount, OpenMpAvailabilityIsConsistent) {
  if (has_openmp()) {
    EXPECT_GE(thread_count(), 1);
  } else {
    EXPECT_EQ(thread_count(), 1);
  }
}

TEST(Env, ParsesIntegersWithFallback) {
  ::setenv("TURBOFNO_TEST_ENV", "42", 1);
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", -1), 42);
  ::setenv("TURBOFNO_TEST_ENV", "notanumber", 1);
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", -1), -1);
  ::unsetenv("TURBOFNO_TEST_ENV");
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", 7), 7);
}

TEST(Env, RejectsOverflowAndPartialNumbers) {
  // strtol saturates to LONG_MIN/LONG_MAX and signals only via errno;
  // env_long must treat that as unparsable, not as a giant size knob.
  ::setenv("TURBOFNO_TEST_ENV", "99999999999999999999999999", 1);
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", 5), 5);
  ::setenv("TURBOFNO_TEST_ENV", "-99999999999999999999999999", 1);
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", 5), 5);
  ::setenv("TURBOFNO_TEST_ENV", "12abc", 1);  // trailing garbage
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", 5), 5);
  ::setenv("TURBOFNO_TEST_ENV", "-3", 1);  // in-range negatives still parse
  EXPECT_EQ(env_long("TURBOFNO_TEST_ENV", 5), -3);
  ::unsetenv("TURBOFNO_TEST_ENV");
}

TEST(Env, ClampedVariantBoundsSizeKnobs) {
  ::setenv("TURBOFNO_TEST_ENV", "-8", 1);
  EXPECT_EQ(env_long_clamped("TURBOFNO_TEST_ENV", 0, 0, 100), 0);  // negative -> lo
  ::setenv("TURBOFNO_TEST_ENV", "1000", 1);
  EXPECT_EQ(env_long_clamped("TURBOFNO_TEST_ENV", 0, 0, 100), 100);  // -> hi
  ::setenv("TURBOFNO_TEST_ENV", "37", 1);
  EXPECT_EQ(env_long_clamped("TURBOFNO_TEST_ENV", 0, 0, 100), 37);
  ::setenv("TURBOFNO_TEST_ENV", "junk", 1);  // unparsable -> clamped fallback
  EXPECT_EQ(env_long_clamped("TURBOFNO_TEST_ENV", -5, 1, 100), 1);
  ::unsetenv("TURBOFNO_TEST_ENV");
}

TEST(Env, FlagRecognizesTruthyValues) {
  for (const char* v : {"1", "on", "true", "yes"}) {
    ::setenv("TURBOFNO_TEST_FLAG", v, 1);
    EXPECT_TRUE(env_flag("TURBOFNO_TEST_FLAG")) << v;
  }
  ::setenv("TURBOFNO_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("TURBOFNO_TEST_FLAG"));
  ::unsetenv("TURBOFNO_TEST_FLAG");
  EXPECT_FALSE(env_flag("TURBOFNO_TEST_FLAG"));
}

TEST(Env, FormatHelpers) {
  EXPECT_EQ(format_bytes(512.0), "512.00 B");
  EXPECT_EQ(format_bytes(2048.0), "2.00 KiB");
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.002), "2.000 ms");
  EXPECT_EQ(format_seconds(3e-6), "3.000 us");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  (void)sink;
}

TEST(Timer, BestOfReturnsMinimum) {
  int runs = 0;
  const double best = time_best_of(3, [&] { ++runs; });
  EXPECT_EQ(runs, 4);  // 1 warmup + 3 timed
  EXPECT_GE(best, 0.0);
}

}  // namespace
}  // namespace turbofno::runtime
