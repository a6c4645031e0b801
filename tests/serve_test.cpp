// Deterministic end-to-end tests of the batched inference serving layer.
//
// The golden property: a request served through InferenceServer — whatever
// micro-batch it happens to ride in — must produce results bitwise-identical
// to running the same input through a serial, batch-1 core::Fno model built
// from the same config.  This holds on every SIMD backend (the comparison is
// within one build, so the suite is golden under TURBOFNO_SIMD=avx512,
// =avx2 and =scalar alike), and makes batching a pure throughput
// optimization.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/fno.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace turbofno::serve {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_signal;

core::Fno1dConfig small_1d() {
  core::Fno1dConfig c;
  c.in_channels = 2;
  c.hidden = 8;
  c.out_channels = 2;
  c.n = 64;
  c.modes = 16;
  c.layers = 2;
  return c;
}

core::Fno1dConfig wide_1d() {
  core::Fno1dConfig c;
  c.in_channels = 1;
  c.hidden = 12;
  c.out_channels = 1;
  c.n = 128;
  c.modes = 32;
  c.layers = 1;
  return c;
}

core::Fno2dConfig small_2d() {
  core::Fno2dConfig c;
  c.in_channels = 1;
  c.hidden = 8;
  c.out_channels = 1;
  c.nx = 16;
  c.ny = 16;
  c.modes_x = 4;
  c.modes_y = 4;
  c.layers = 2;
  return c;
}

::testing::AssertionResult bitwise_equal(std::span<const c32> a, std::span<const c32> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(c32)) != 0) {
    return ::testing::AssertionFailure() << "outputs differ, max |err| = " << max_err(a, b);
  }
  return ::testing::AssertionSuccess();
}

TEST(ServeGolden, MixedShapeStreamMatchesSerialExecutionBitwise) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 200e-6;
  so.workers = 2;
  InferenceServer server(so);

  const ModelId m0 = server.load_model(small_1d());
  const ModelId m1 = server.load_model(wide_1d());
  const ModelId m2 = server.load_model(small_2d());
  const ModelId models[] = {m0, m1, m2};

  // Serial references: batch-1 models from the same configs (same seeds,
  // hence bitwise-identical weights).
  core::Fno1d ref0(small_1d());
  core::Fno1d ref1(wide_1d());
  core::Fno2d ref2(small_2d());

  // Fixed-seed request stream, interleaving the three shapes.
  constexpr std::size_t kTotal = 48;
  std::vector<std::vector<c32>> inputs(kTotal);
  std::vector<std::future<InferResponse>> futs;
  futs.reserve(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    const ModelId m = models[i % 3];
    inputs[i] = random_signal(server.input_elems(m), 7000u + static_cast<unsigned>(i));
    futs.push_back(server.submit(m, inputs[i]));
  }
  server.drain();

  for (std::size_t i = 0; i < kTotal; ++i) {
    const ModelId m = models[i % 3];
    auto resp = futs[i].get();
    ASSERT_EQ(resp.status, Status::Ok) << "request " << i;
    EXPECT_GE(resp.timing.micro_batch, 1u);
    EXPECT_LE(resp.timing.micro_batch, so.policy.max_batch);

    std::vector<c32> expect(server.output_elems(m));
    switch (i % 3) {
      case 0:
        ref0.forward(inputs[i], expect);
        break;
      case 1:
        ref1.forward(inputs[i], expect);
        break;
      default:
        ref2.forward(inputs[i], expect);
        break;
    }
    EXPECT_TRUE(bitwise_equal(resp.output, expect)) << "request " << i;
  }

  const auto st = server.stats();
  EXPECT_EQ(st.submitted, kTotal);
  EXPECT_EQ(st.completed, kTotal);
  EXPECT_EQ(st.batched_requests, kTotal);
  EXPECT_GE(st.batches, (kTotal + so.policy.max_batch - 1) / so.policy.max_batch);
}

TEST(ServeGolden, ShutdownWithInflightRequestsDrainsAndStaysGolden) {
  InferenceServer::Options so;
  so.policy.max_batch = 5;
  so.policy.max_delay_s = 10.0;  // only size triggers or the shutdown flush
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  core::Fno1d ref(small_1d());

  constexpr std::size_t kTotal = 17;  // 3 full batches + 2 stragglers
  std::vector<std::vector<c32>> inputs(kTotal);
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < kTotal; ++i) {
    inputs[i] = random_signal(server.input_elems(m), 8100u + static_cast<unsigned>(i));
    futs.push_back(server.submit(m, inputs[i]));
  }
  // Immediately wind down with work still queued and in flight.
  server.stop(InferenceServer::StopMode::Drain);

  for (std::size_t i = 0; i < kTotal; ++i) {
    auto resp = futs[i].get();
    ASSERT_EQ(resp.status, Status::Ok) << "request " << i;
    std::vector<c32> expect(server.output_elems(m));
    ref.forward(inputs[i], expect);
    EXPECT_TRUE(bitwise_equal(resp.output, expect)) << "request " << i;
  }
  EXPECT_EQ(server.stats().completed, kTotal);

  // Submissions after shutdown are refused, not dropped.
  auto late = server.submit(m, random_signal(server.input_elems(m), 1u));
  EXPECT_EQ(late.get().status, Status::ShutDown);
}

TEST(ServeShutdown, AbortCompletesQueuedRequestsWithShutDownStatus) {
  InferenceServer::Options so;
  so.policy.max_batch = 64;     // never size-triggered
  so.policy.max_delay_s = 10.0;  // never deadline-triggered in test time
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < 8; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 10u + i)));
  }
  server.stop(InferenceServer::StopMode::Abort);

  for (auto& f : futs) {
    const auto resp = f.get();
    EXPECT_EQ(resp.status, Status::ShutDown);
    EXPECT_TRUE(resp.output.empty());
  }
  const auto st = server.stats();
  EXPECT_EQ(st.shut_down, 8u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(ServeLimits, BacklogAndInputValidation) {
  InferenceServer::Options so;
  so.policy.max_batch = 64;
  so.policy.max_delay_s = 10.0;
  so.policy.queue_capacity = 2;
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < 5; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 20u + i)));
  }
  // A wrong-size input is refused regardless of queue state.
  auto bad = server.submit(m, random_signal(3, 1u));
  EXPECT_EQ(bad.get().status, Status::InvalidInput);

  std::size_t rejected = 0;
  server.stop(InferenceServer::StopMode::Abort);
  for (auto& f : futs) {
    const auto resp = f.get();
    if (resp.status == Status::Rejected) ++rejected;
  }
  EXPECT_EQ(rejected, 3u);  // capacity 2 of 5 accepted
  EXPECT_EQ(server.stats().rejected, 4u);  // 3 backlog + 1 invalid input
}

TEST(ServeFlush, FlushBoundsLatencyEvenWhileAModelIsBusy) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 10.0;  // flush(), not the deadline, must release work
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // 6 requests: the first 4 size-trigger a launch (the model is then busy);
  // the 2 stragglers would otherwise wait out the 10 s deadline.
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < 6; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 30u + i)));
  }
  server.flush();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(5)), std::future_status::ready)
        << "request " << i << " stalled past flush()";
    EXPECT_EQ(futs[i].get().status, Status::Ok);
  }
}

TEST(ServeShutdown, ConcurrentStopCallsAreSafe) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 10.0;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < 9; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 60u + i)));
  }
  // Two racing Drain stops (plus the destructor's, later): exactly one owns
  // the wind-down, the others wait for it.
  std::thread racer([&server] { server.stop(InferenceServer::StopMode::Drain); });
  server.stop(InferenceServer::StopMode::Drain);
  racer.join();
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::Ok);
  EXPECT_EQ(server.stats().completed, 9u);
}

TEST(ServeLatency, CountersAccumulateAcrossBatches) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 100e-6;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < 12; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 40u + i)));
  }
  server.drain();
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::Ok);

  const auto counters = server.latency_counters();
  const auto total = counters.total();
  EXPECT_GE(total.kernel_launches, 3u);  // 12 requests, micro-batches <= 4
  bool saw_execute = false;
  for (const auto& s : counters.stages()) {
    if (s.name == "execute") {
      saw_execute = true;
      EXPECT_GT(s.seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_execute);
  // Gather counts only bytes the server actually staged: multi-request
  // micro-batches copy, single-request ones run zero-copy on the request
  // memory, so the total is bounded by (not necessarily equal to) the
  // whole stream.
  const std::size_t in_bytes = server.input_elems(m) * sizeof(c32);
  EXPECT_LE(total.bytes_read, 12 * in_bytes);
}

// ------------------------------------------------------------ zero-copy v2

TEST(ServeZeroCopy, SingleRequestBatchesCopyNoBytesAndStayGolden) {
  InferenceServer::Options so;
  so.policy.max_batch = 8;
  so.policy.max_delay_s = 100e-6;
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  core::Fno1d ref(small_1d());

  for (unsigned i = 0; i < 3; ++i) {
    const auto input = random_signal(server.input_elems(m), 9100u + i);
    std::vector<c32> output(server.output_elems(m));
    auto fut = server.submit(m, std::span<const c32>(input), std::span<c32>(output));
    server.drain();  // each request rides a micro-batch of one
    const auto resp = fut.get();
    ASSERT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.timing.micro_batch, 1u);
    EXPECT_TRUE(resp.output.empty()) << "zero-copy results land in the caller buffer";

    std::vector<c32> expect(output.size());
    ref.forward(input, expect);
    EXPECT_TRUE(bitwise_equal(output, expect));
  }

  // The gather/scatter counters prove no input or output bytes moved
  // through the staging area.
  const auto counters = server.latency_counters();
  for (const auto& s : counters.stages()) {
    if (s.name == "gather") EXPECT_EQ(s.bytes_read, 0u);
    if (s.name == "scatter") EXPECT_EQ(s.bytes_written, 0u);
  }
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(ServeZeroCopy, ViewAndOwningSubmissionsAgreeBitwiseInSharedBatches) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 200e-6;
  so.workers = 2;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  core::Fno1d ref(small_1d());

  constexpr std::size_t kTotal = 16;
  std::vector<std::vector<c32>> inputs(kTotal);
  std::vector<std::vector<c32>> view_outputs(kTotal);
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < kTotal; ++i) {
    inputs[i] = random_signal(server.input_elems(m), 9300u + static_cast<unsigned>(i));
    if (i % 2 == 0) {
      view_outputs[i].resize(server.output_elems(m));
      futs.push_back(server.submit(m, std::span<const c32>(inputs[i]),
                                   std::span<c32>(view_outputs[i])));
    } else {
      futs.push_back(server.submit(m, inputs[i]));  // owning wrapper
    }
  }
  server.drain();

  for (std::size_t i = 0; i < kTotal; ++i) {
    const auto resp = futs[i].get();
    ASSERT_EQ(resp.status, Status::Ok) << i;
    std::vector<c32> expect(server.output_elems(m));
    ref.forward(inputs[i], expect);
    const auto& got = (i % 2 == 0) ? view_outputs[i] : resp.output;
    EXPECT_TRUE(bitwise_equal(got, expect)) << i;
  }
}

TEST(ServeZeroCopy, MisshapenViewsAreRejected) {
  InferenceServer server;
  const ModelId m = server.load_model(small_1d());
  const auto input = random_signal(server.input_elems(m), 1u);
  std::vector<c32> short_out(server.output_elems(m) - 1);
  auto fut = server.submit(m, std::span<const c32>(input), std::span<c32>(short_out));
  EXPECT_EQ(fut.get().status, Status::InvalidInput);

  const auto short_in = random_signal(server.input_elems(m) - 1, 2u);
  std::vector<c32> out(server.output_elems(m));
  fut = server.submit(m, std::span<const c32>(short_in), std::span<c32>(out));
  EXPECT_EQ(fut.get().status, Status::InvalidInput);
}

// ------------------------------------------------------------------- QoS v2

namespace {

/// Sequence recorder shared by the QoS tests: completion callbacks append
/// (tag) under a lock; drain() in the test then makes the order stable.
struct CompletionLog {
  std::mutex mu;
  std::vector<std::string> order;
  void add(std::string tag) {
    const std::lock_guard<std::mutex> lock(mu);
    order.push_back(std::move(tag));
  }
};

/// Wraps a blocker's completion callback so it holds the single executor
/// until the test opens the gate: fulfils its promise, or destroys it when
/// a failed assertion leaves the test early.  Callbacks run on the executor
/// thread before the model is marked idle, so whatever the test submits
/// before opening the gate queues behind the blocker however fast its
/// forward ran.
template <class Callback>
auto gated(std::promise<void>& gate, Callback cb) {
  return [open = gate.get_future().share(), cb](InferResponse&& r) mutable {
    open.wait();
    cb(std::move(r));
  };
}

}  // namespace

TEST(ServeQos, HighPriorityOvertakesQueuedNormalWork) {
  InferenceServer::Options so;
  so.policy.max_batch = 1;          // one request per micro-batch: pop order == completion order
  so.policy.max_delay_s = 10.0;     // launches come from the size trigger / relaunch chain only
  so.policy.starvation_s = 30.0;    // guard never fires in this test
  so.workers = 1;                   // a single executor serializes everything
  InferenceServer server(so);

  // The blocker occupies the only worker while the burst is enqueued, so
  // the pop order of the burst is decided strictly by QoS, not timing.
  const ModelId blocker_model = server.load_model(wide_1d());
  const ModelId m = server.load_model(small_1d());

  CompletionLog log;
  auto cb = [&log](const char* tag) {
    return [&log, tag](InferResponse&& r) {
      ASSERT_EQ(r.status, Status::Ok);
      log.add(tag);
    };
  };

  std::promise<void> gate;  // after server: destroyed first, so it opens on any exit
  server.submit(blocker_model, random_signal(server.input_elems(blocker_model), 1u),
                gated(gate, cb("blocker")));
  // First burst request launches immediately behind the blocker in the
  // worker queue and pins the model busy; the rest pile up and are popped
  // by QoS class when the chain relaunches.
  for (int i = 0; i < 4; ++i) {
    server.submit(m, random_signal(server.input_elems(m), 100u + i), cb("normal"));
  }
  for (int i = 0; i < 4; ++i) {
    server.submit(m, random_signal(server.input_elems(m), 200u + i), cb("high"),
                  SubmitOptions{Priority::High});
  }
  gate.set_value();
  server.drain();

  ASSERT_EQ(log.order.size(), 9u);
  // normal#1 rode the already-launched first batch; the queued remainder
  // must pop all highs before the normals.
  std::vector<std::string> burst(log.order.begin(), log.order.end());
  burst.erase(std::remove(burst.begin(), burst.end(), "blocker"), burst.end());
  const std::vector<std::string> want = {"normal", "high", "high", "high", "high",
                                         "normal", "normal", "normal"};
  EXPECT_EQ(burst, want);
  EXPECT_EQ(server.stats().high_submitted, 4u);
  EXPECT_EQ(server.stats().starvation_promotions, 0u);
}

TEST(ServeQos, StarvationGuardPromotesOverdueNormalWork) {
  InferenceServer::Options so;
  so.policy.max_batch = 1;
  so.policy.max_delay_s = 10.0;
  so.policy.starvation_s = 1e-9;  // every queued Normal is immediately overdue
  so.workers = 1;
  InferenceServer server(so);

  const ModelId blocker_model = server.load_model(wide_1d());
  const ModelId m = server.load_model(small_1d());

  CompletionLog log;
  auto cb = [&log](const char* tag) {
    return [&log, tag](InferResponse&& r) {
      ASSERT_EQ(r.status, Status::Ok);
      log.add(tag);
    };
  };

  std::promise<void> gate;  // after server: destroyed first, so it opens on any exit
  server.submit(blocker_model, random_signal(server.input_elems(blocker_model), 1u),
                gated(gate, cb("blocker")));
  for (int i = 0; i < 2; ++i) {
    server.submit(m, random_signal(server.input_elems(m), 300u + i), cb("normal"));
  }
  for (int i = 0; i < 2; ++i) {
    server.submit(m, random_signal(server.input_elems(m), 400u + i), cb("high"),
                  SubmitOptions{Priority::High});
  }
  gate.set_value();
  server.drain();

  std::vector<std::string> burst(log.order.begin(), log.order.end());
  burst.erase(std::remove(burst.begin(), burst.end(), "blocker"), burst.end());
  // All normals are overdue from the instant they queue, so the guard pops
  // them ahead of the younger high-priority work.
  const std::vector<std::string> want = {"normal", "normal", "high", "high"};
  EXPECT_EQ(burst, want);
  EXPECT_GE(server.stats().starvation_promotions, 1u);
}

TEST(ServeQos, PriorityNeverChangesValuesOnlyOrder) {
  InferenceServer::Options so;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 200e-6;
  so.workers = 2;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());
  core::Fno1d ref(small_1d());

  constexpr std::size_t kTotal = 12;
  std::vector<std::vector<c32>> inputs(kTotal);
  std::vector<std::future<InferResponse>> futs;
  for (std::size_t i = 0; i < kTotal; ++i) {
    inputs[i] = random_signal(server.input_elems(m), 9500u + static_cast<unsigned>(i));
    const SubmitOptions opts{i % 3 == 0 ? Priority::High : Priority::Normal};
    futs.push_back(server.submit(m, inputs[i], opts));
  }
  server.drain();
  for (std::size_t i = 0; i < kTotal; ++i) {
    const auto resp = futs[i].get();
    ASSERT_EQ(resp.status, Status::Ok);
    EXPECT_EQ(resp.priority, i % 3 == 0 ? Priority::High : Priority::Normal);
    std::vector<c32> expect(server.output_elems(m));
    ref.forward(inputs[i], expect);
    EXPECT_TRUE(bitwise_equal(resp.output, expect)) << i;
  }
}

// The admission-control contract (SubmitOptions::deadline_s): a deadline
// the backlog makes infeasible is refused as Status::Shed at submission,
// judged per QoS class — Normal counts the whole backlog, High counts
// only the High backlog — so under saturation Normal sheds first while
// feasible High work keeps being admitted.  set_exec_estimate() pins the
// learned per-request estimate, making these tests deterministic.

TEST(ServeAdmission, InfeasibleNormalShedsWhileFeasibleHighAdmits) {
  InferenceServer::Options so;
  so.policy.max_batch = 1;
  so.policy.max_delay_s = 10.0;
  so.workers = 1;
  InferenceServer server(so);

  // The blocker pins the only worker so the small model's backlog holds
  // still while the probes below are judged.
  const ModelId blocker_model = server.load_model(wide_1d());
  const ModelId m = server.load_model(small_1d());

  std::promise<void> gate;  // after server: destroyed first, so it opens on any exit
  server.submit(blocker_model, random_signal(server.input_elems(blocker_model), 1u),
                gated(gate, [](InferResponse&& r) { ASSERT_EQ(r.status, Status::Ok); }));
  // Saturate m: the first request launches (model busy, parked behind the
  // blocker in the worker queue); five more queue up.  None carry
  // deadlines, so none of these shed.
  std::vector<std::future<InferResponse>> admitted;
  for (int i = 0; i < 6; ++i) {
    admitted.push_back(server.submit(m, random_signal(server.input_elems(m), 50u + i)));
  }
  EXPECT_GE(server.queue_depth(m), 4u);

  // Teach admission that m costs ~1 s per request.  Backlog ahead of a
  // Normal probe is >= 5 (queue + busy), so a 2 s deadline is hopeless;
  // a High probe only competes with the (empty) High backlog, so the
  // same 2 s deadline is feasible.
  server.set_exec_estimate(m, 1.0);
  EXPECT_DOUBLE_EQ(server.exec_estimate(m), 1.0);

  // A shed is answered at submission; an admitted probe would wait behind
  // the gate.
  auto shed_normal = server.submit(m, random_signal(server.input_elems(m), 90u),
                                   SubmitOptions{Priority::Normal, 2.0});
  ASSERT_EQ(shed_normal.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(shed_normal.get().status, Status::Shed);

  server.set_exec_estimate(m, 1.0);
  auto high_ok = server.submit(m, random_signal(server.input_elems(m), 91u),
                               SubmitOptions{Priority::High, 2.0});

  // A High deadline below even its own class's wait sheds too.
  server.set_exec_estimate(m, 1.0);
  auto shed_high = server.submit(m, random_signal(server.input_elems(m), 92u),
                                 SubmitOptions{Priority::High, 0.5});
  ASSERT_EQ(shed_high.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(shed_high.get().status, Status::Shed);

  const auto mid = server.stats();
  EXPECT_EQ(mid.shed_normal, 1u);
  EXPECT_EQ(mid.shed_high, 1u);

  // Every admitted request — including the deadline-armed High one —
  // completes normally; shedding refused doomed work, nothing else.
  gate.set_value();
  server.drain();
  EXPECT_EQ(high_ok.get().status, Status::Ok);
  for (auto& f : admitted) EXPECT_EQ(f.get().status, Status::Ok);
  EXPECT_EQ(server.stats().completed, 8u);  // blocker + 6 + high_ok
}

TEST(ServeAdmission, NoDeadlineNeverShedsAndEstimateIsLearned) {
  InferenceServer::Options so;
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Before anything completes there is no estimate: deadline-armed work
  // is admitted optimistically ("admit and learn").
  EXPECT_DOUBLE_EQ(server.exec_estimate(m), 0.0);
  auto first = server.submit(m, random_signal(server.input_elems(m), 1u),
                             SubmitOptions{Priority::Normal, 1e-9});
  EXPECT_EQ(first.get().status, Status::Ok);
  // ... and completing it taught the server a positive estimate.  The
  // response is delivered just before the executor's bookkeeping, so give
  // the update a moment to land.
  server.drain();
  for (int i = 0; i < 1000 && server.exec_estimate(m) == 0.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server.exec_estimate(m), 0.0);

  // An absurd estimate cannot shed deadline-less work.
  server.set_exec_estimate(m, 3600.0);
  auto second = server.submit(m, random_signal(server.input_elems(m), 2u));
  EXPECT_EQ(second.get().status, Status::Ok);
  EXPECT_EQ(server.stats().shed_normal, 0u);
  EXPECT_EQ(server.stats().shed_high, 0u);
  EXPECT_EQ(server.queue_depth(m), 0u);
}

TEST(ServeAdmission, ExecEstimateConvergesUnderSteadyLoad) {
  InferenceServer::Options so;
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Poison the estimate with an absurd seed, then run steady singleton
  // load: the 0.75/0.25 EWMA must forget it geometrically.  After 40
  // completions the seed's residue is 0.75^40 * 1000 ~ 1e-2 s, and the
  // true per-request cost of this tiny model is far below a second, so
  // the learned estimate lands under 1 s or the EWMA is broken.
  server.set_exec_estimate(m, 1000.0);
  for (int i = 0; i < 40; ++i) {
    auto f = server.submit(m, random_signal(server.input_elems(m), 70u + i));
    ASSERT_EQ(f.get().status, Status::Ok);
  }
  server.drain();
  // The estimate update lands in the executor's bookkeeping just after
  // the response fires; poll briefly for the last one.
  for (int i = 0; i < 1000 && server.exec_estimate(m) >= 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LT(server.exec_estimate(m), 1.0);
  EXPECT_GT(server.exec_estimate(m), 0.0);
}

TEST(ServeAdmission, SeededEstimateFlipsShedDecisionDeterministically) {
  InferenceServer::Options so;
  so.workers = 1;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Idle model, 1 s deadline.  Estimate 5 s/request: (backlog 0 + this
  // request) * 5 s > 1 s, so admission must shed — deterministically,
  // no timing involved.
  server.set_exec_estimate(m, 5.0);
  auto shed = server.submit(m, random_signal(server.input_elems(m), 1u),
                            SubmitOptions{Priority::Normal, 1.0});
  EXPECT_EQ(shed.get().status, Status::Shed);

  // Re-seed at 0.1 s/request: the same deadline is now feasible.
  server.set_exec_estimate(m, 0.1);
  auto ok = server.submit(m, random_signal(server.input_elems(m), 2u),
                          SubmitOptions{Priority::Normal, 1.0});
  EXPECT_EQ(ok.get().status, Status::Ok);
  EXPECT_EQ(server.stats().shed_normal, 1u);
}

// ------------------------------------------------------- adaptive batching

TEST(ServeAdaptive, SustainedOverloadGrowsMicroBatchesPastMaxBatch) {
  InferenceServer::Options so;
  so.workers = 1;
  so.policy.max_batch = 8;
  so.policy.max_delay_s = 10.0;
  so.policy.adaptive = true;
  so.policy.growth_limit = 4;  // cap: 8 * 4 = 32
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Seed sustained overload: arrivals (1 us apart) vastly outpace
  // execution (10 s per request), so the batch cap opens to
  // max_batch * growth_limit and the speculative launch target rides the
  // cap — the 32 requests below must ride ONE micro-batch of 32.
  server.set_exec_estimate(m, 10.0);
  server.set_arrival_estimate(m, 1e-6);
  EXPECT_DOUBLE_EQ(server.arrival_estimate(m), 1e-6);

  constexpr std::size_t kRequests = 32;
  std::vector<std::future<InferResponse>> futs;
  futs.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 700u + i)));
  }
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.timing.micro_batch, kRequests);  // grown past max_batch 8
  }
  server.drain();
  const auto st = server.stats();
  EXPECT_GE(st.grown_batches, 1u);
  EXPECT_EQ(st.max_micro_batch, kRequests);
}

TEST(ServeAdaptive, SparseTrafficLaunchesSingletonsImmediately) {
  InferenceServer::Options so;
  so.workers = 1;
  so.policy.max_batch = 8;
  so.policy.max_delay_s = 10.0;  // non-adaptive batching would sit on this
  so.policy.adaptive = true;
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Arrivals 100 s apart: the expected fill within max_delay is under one
  // request, so the speculative target is 1 and a lone submission must
  // launch immediately instead of waiting out the 10 s delay window.
  server.set_arrival_estimate(m, 100.0);
  const auto t0 = std::chrono::steady_clock::now();
  auto f = server.submit(m, random_signal(server.input_elems(m), 9u));
  const auto r = f.get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.timing.micro_batch, 1u);
  EXPECT_LT(waited, 5.0);  // far below the 10 s delay trigger
}

TEST(ServeAdaptive, OffByDefaultKeepsMicroBatchesWithinMaxBatch) {
  InferenceServer::Options so;
  so.workers = 1;
  so.policy.max_batch = 4;
  so.policy.max_delay_s = 100e-6;
  ASSERT_FALSE(so.policy.adaptive);  // growth is strictly opt-in
  InferenceServer server(so);
  const ModelId m = server.load_model(small_1d());

  // Even with overload-shaped estimates seeded, a non-adaptive server
  // never exceeds max_batch.
  server.set_exec_estimate(m, 10.0);
  server.set_arrival_estimate(m, 1e-6);
  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(server.submit(m, random_signal(server.input_elems(m), 800u + i)));
  }
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_LE(r.timing.micro_batch, so.policy.max_batch);
  }
  EXPECT_EQ(server.stats().grown_batches, 0u);
}

}  // namespace
}  // namespace turbofno::serve
