// FFT plan cache.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fft/plan_cache.hpp"

namespace turbofno {
namespace {

TEST(PlanCache, SameDescriptorSharesOnePlan) {
  fft::PlanDesc d;
  d.n = 512;
  d.keep = 128;
  const auto& a = fft::cached_plan(d);
  const auto& b = fft::cached_plan(d);
  EXPECT_EQ(&a, &b);
}

TEST(PlanCache, DistinctDescriptorsDistinctPlans) {
  fft::PlanDesc d;
  d.n = 512;
  const auto& full = fft::cached_plan(d);
  d.keep = 64;
  const auto& trunc = fft::cached_plan(d);
  EXPECT_NE(&full, &trunc);
  EXPECT_FALSE(full.pruned());
  EXPECT_TRUE(trunc.pruned());
}

TEST(PlanCache, DefaultedFieldsNormalizeToSameKey) {
  fft::PlanDesc a;
  a.n = 256;
  a.keep = 0;  // means n
  fft::PlanDesc b;
  b.n = 256;
  b.keep = 256;  // explicit n
  EXPECT_EQ(&fft::cached_plan(a), &fft::cached_plan(b));
}

TEST(PlanCache, ConcurrentLookupsAreSafe) {
  fft::PlanDesc d;
  d.n = 1024;
  d.keep = 256;
  std::vector<const fft::FftPlan*> seen(8, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] { seen[t] = &fft::cached_plan(d); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_GE(fft::cached_plan_count(), 1u);
}

}  // namespace
}  // namespace turbofno
