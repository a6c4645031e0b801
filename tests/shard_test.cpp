// Sharded serving tests: topology routing, the router's bitwise
// transparency against a direct single-process server, correlation
// remapping under pipelined multi-client load, gap-queue/shed
// backpressure, and the supervisor's crash-restart loop (fork/exec'd
// tfno_shardd workers, SIGKILL fault injection mid-soak).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "net/client.hpp"
#include "net/socket_server.hpp"
#include "shard/router.hpp"
#include "shard/supervisor.hpp"
#include "shard/topology.hpp"
#include "shard/worker.hpp"
#include "test_util.hpp"

namespace turbofno::shard {
namespace {

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

/// A second, distinguishable 1D model (different hidden width => different
/// seeded weights), so cross-shard misrouting cannot go unnoticed.
core::Fno1dConfig alt_1d() {
  core::Fno1dConfig c = small_1d();
  c.hidden = 12;
  c.layers = 1;
  return c;
}

/// The mixed test topology: worker 0 owns globals {0, 2}, worker 1 owns
/// global {1} — local ids differ from global ids on purpose.
Topology test_topology() {
  Topology topo;
  topo.add(small_1d(), 0);
  topo.add(small_2d(), 1);
  topo.add(alt_1d(), 0);
  return topo;
}

std::vector<float> random_real(std::size_t n, unsigned seed) {
  const auto z = random_signal(n, seed);
  std::vector<float> r(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = z[i].re;
  return r;
}

bool bitwise_equal(std::span<const std::byte> got, const void* want, std::size_t bytes) {
  return got.size() == bytes && std::memcmp(got.data(), want, bytes) == 0;
}

template <typename Pred>
bool eventually(Pred pred, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// tfno_shardd is built into the same output directory as the tests.
std::string shardd_path() {
  char buf[4096];
  const auto n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "tfno_shardd";
  buf[n] = '\0';
  const std::string self(buf);
  return self.substr(0, self.rfind('/')) + "/tfno_shardd";
}

/// An in-process two-worker fleet behind a router, all on ephemeral ports.
struct InProcessFleet {
  Topology topo = test_topology();
  Worker w0{topo, 0};
  Worker w1{topo, 1};
  Router router{test_topology()};  // Options{}: ephemeral public port

  InProcessFleet() {
    w0.start();
    w1.start();
    router.set_worker_endpoint(0, w0.port());
    router.set_worker_endpoint(1, w1.port());
    router.start();
  }
  ~InProcessFleet() {
    router.stop();
    w0.stop();
    w1.stop();
  }
};

// ----------------------------------------------------------------- topology

TEST(ShardTopology, RoutesGlobalIdsToOwnerLocalPairs) {
  const Topology topo = test_topology();
  EXPECT_EQ(topo.model_count(), 3u);
  EXPECT_EQ(topo.worker_count(), 2u);
  EXPECT_EQ(topo.owned_count(0), 2u);
  EXPECT_EQ(topo.owned_count(1), 1u);
  EXPECT_EQ(topo.owned(0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(topo.owned(1), (std::vector<std::size_t>{1}));

  EXPECT_EQ(topo.route(0).worker, 0u);
  EXPECT_EQ(topo.route(0).local, 0u);
  EXPECT_EQ(topo.route(1).worker, 1u);
  EXPECT_EQ(topo.route(1).local, 0u);
  EXPECT_EQ(topo.route(2).worker, 0u);
  EXPECT_EQ(topo.route(2).local, 1u);
  EXPECT_THROW((void)topo.route(3), std::out_of_range);
}

TEST(ShardTopology, SpecSerializationRoundTrips) {
  const Topology topo = test_topology();
  const std::string spec = topo.spec();
  const Topology parsed = Topology::parse(spec);
  ASSERT_EQ(parsed.model_count(), topo.model_count());
  EXPECT_EQ(parsed.spec(), spec);  // canonical form is a fixed point
  for (std::size_t i = 0; i < topo.model_count(); ++i) {
    EXPECT_EQ(parsed.route(i).worker, topo.route(i).worker) << "model " << i;
    EXPECT_EQ(parsed.route(i).local, topo.route(i).local) << "model " << i;
    EXPECT_TRUE(parsed.models()[i].cfg == topo.models()[i].cfg) << "model " << i;
    EXPECT_EQ(parsed.models()[i].worker, topo.models()[i].worker) << "model " << i;
  }
}

TEST(ShardTopology, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)Topology::parse("3d:1,2,3@0"), std::invalid_argument);
  EXPECT_THROW((void)Topology::parse("1d:1,2,3,4,5,6"), std::invalid_argument);   // no @
  EXPECT_THROW((void)Topology::parse("1d:1,2,3,4,5@0"), std::invalid_argument);   // 5 fields
  EXPECT_THROW((void)Topology::parse("1d:1,2,x,4,5,6@0"), std::invalid_argument);
  EXPECT_THROW((void)Topology::parse("1d:1,2,3,4,5,6@zero"), std::invalid_argument);
  EXPECT_THROW((void)Topology::parse(";"), std::invalid_argument);
}

// --------------------------------------------- router bitwise transparency

TEST(ShardRouter, MixedSoakBitwiseIdenticalToDirectServer) {
  // The reference: one ordinary single-process server holding all three
  // models, registered in global-id order.
  net::SocketServer::Options so;
  so.port = 0;
  net::SocketServer direct(so);
  const auto d0 = static_cast<std::uint32_t>(direct.load_model(small_1d()));
  const auto d1 = static_cast<std::uint32_t>(direct.load_model(small_2d()));
  const auto d2 = static_cast<std::uint32_t>(direct.load_model(alt_1d()));
  ASSERT_EQ(d0, 0u);
  ASSERT_EQ(d1, 1u);
  ASSERT_EQ(d2, 2u);
  direct.start();

  InProcessFleet fleet;

  net::Client via_router;
  via_router.connect(fleet.router.port());
  via_router.set_io_timeout(20.0);
  net::Client via_direct;
  via_direct.connect(direct.port());

  const std::uint32_t dims1[] = {2, 64};
  const std::uint32_t dims2[] = {1, 16, 16};
  const core::Fno1dConfig c1 = small_1d();
  const core::Fno2dConfig c2 = small_2d();
  const std::size_t in1 = static_cast<std::size_t>(c1.in_channels) * c1.n;
  const std::size_t in2 = static_cast<std::size_t>(c2.in_channels) * c2.nx * c2.ny;

  for (unsigned round = 0; round < 4; ++round) {
    const net::Qos qos = round % 2 == 0 ? net::Qos::High : net::Qos::Normal;
    // 1D complex on worker 0 (global 0 -> local 0).
    {
      const auto in = random_signal(in1, 100 + round);
      const auto a = via_direct.infer_c32(0, dims1, in, qos);
      const auto b = via_router.infer_c32(0, dims1, in, qos);
      ASSERT_EQ(a.head.status, net::WireStatus::Ok);
      ASSERT_EQ(b.head.status, net::WireStatus::Ok);
      EXPECT_TRUE(bitwise_equal(b.payload(), a.payload().data(), a.payload().size()));
    }
    // 2D complex on worker 1 (global 1 -> local 0: the remap case).
    {
      const auto in = random_signal(in2, 200 + round);
      const auto a = via_direct.infer_c32(1, dims2, in, qos);
      const auto b = via_router.infer_c32(1, dims2, in, qos);
      ASSERT_EQ(a.head.status, net::WireStatus::Ok);
      ASSERT_EQ(b.head.status, net::WireStatus::Ok);
      EXPECT_TRUE(bitwise_equal(b.payload(), a.payload().data(), a.payload().size()));
    }
    // 1D real (f32) lane on worker 0's second model (global 2 -> local 1).
    {
      const auto in = random_real(in1, 300 + round);
      const auto a = via_direct.infer_real(2, dims1, in, qos);
      const auto b = via_router.infer_real(2, dims1, in, qos);
      ASSERT_EQ(a.head.status, net::WireStatus::Ok);
      ASSERT_EQ(b.head.status, net::WireStatus::Ok);
      EXPECT_TRUE(bitwise_equal(b.payload(), a.payload().data(), a.payload().size()));
    }
    // 2D real lane, crossing back to worker 1.
    {
      const auto in = random_real(in2, 400 + round);
      const auto a = via_direct.infer_real(1, dims2, in, qos);
      const auto b = via_router.infer_real(1, dims2, in, qos);
      ASSERT_EQ(a.head.status, net::WireStatus::Ok);
      ASSERT_EQ(b.head.status, net::WireStatus::Ok);
      EXPECT_TRUE(bitwise_equal(b.payload(), a.payload().data(), a.payload().size()));
    }
  }
  const auto rs = fleet.router.stats();
  EXPECT_EQ(rs.frames_routed, 16u);
  EXPECT_EQ(rs.responses_relayed, 16u);
  EXPECT_EQ(rs.shed_by_router, 0u);
  EXPECT_EQ(rs.protocol_errors, 0u);
  direct.stop();
}

TEST(ShardRouter, PipelinedClientsCompleteOutOfOrderWithCorrectCorrelations) {
  InProcessFleet fleet;
  core::Engine ref_eng;
  const auto h0 = ref_eng.register_model(small_1d());
  const auto h1 = ref_eng.register_model(small_2d());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerModel = 8;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::Session ref0 = ref_eng.create_session(h0);
      core::Session ref1 = ref_eng.create_session(h1);
      net::Client cli;
      cli.connect(fleet.router.port());
      cli.set_io_timeout(20.0);
      const std::vector<std::uint32_t> dims1 = {2, 64};
      const std::vector<std::uint32_t> dims2 = {1, 16, 16};

      // Fire everything (interleaved across both shards) before reading a
      // single response: the router must remap correlations so that each
      // answer — whatever order the two workers finish in — lands back on
      // the right request.
      std::map<std::uint64_t, std::vector<c32>> expect;
      for (std::size_t i = 0; i < kPerModel; ++i) {
        const unsigned seed = static_cast<unsigned>(7000 + 100 * t + i);
        {
          const auto in = random_signal(ref0.input_elems(), seed);
          std::vector<c32> want(ref0.output_elems());
          ref0.run(in, want);
          const auto corr = cli.send_request(
              0, net::Dtype::C32, dims1,
              {reinterpret_cast<const std::byte*>(in.data()), in.size() * sizeof(c32)});
          expect.emplace(corr, std::move(want));
        }
        {
          const auto in = random_signal(ref1.input_elems(), seed + 50);
          std::vector<c32> want(ref1.output_elems());
          ref1.run(in, want);
          const auto corr = cli.send_request(
              1, net::Dtype::C32, dims2,
              {reinterpret_cast<const std::byte*>(in.data()), in.size() * sizeof(c32)});
          expect.emplace(corr, std::move(want));
        }
      }
      net::Client::Result r;
      for (std::size_t i = 0; i < 2 * kPerModel; ++i) {
        if (!cli.recv_response(r) || r.head.status != net::WireStatus::Ok) {
          ++failures;
          return;
        }
        const auto it = expect.find(r.head.correlation);
        if (it == expect.end() ||
            !bitwise_equal(r.payload(), it->second.data(),
                           it->second.size() * sizeof(c32))) {
          ++failures;
          return;
        }
        expect.erase(it);
      }
      if (!expect.empty()) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  const auto rs = fleet.router.stats();
  EXPECT_EQ(rs.frames_routed, kThreads * kPerModel * 2);
  EXPECT_EQ(rs.responses_relayed, kThreads * kPerModel * 2);
  EXPECT_EQ(rs.dropped_responses, 0u);
}

// ------------------------------------------- router protocol and liveness

TEST(ShardRouter, AnswersProtocolTrafficLikeAServer) {
  InProcessFleet fleet;

  // Heartbeat control frames are answered by the router itself.
  net::Client cli;
  cli.connect(fleet.router.port());
  EXPECT_TRUE(cli.ping(5.0));

  // Unknown global model id: typed error, connection survives.
  const std::vector<float> in(2 * 64, 1.0f);
  const std::uint32_t dims1[] = {2, 64};
  const auto bad = cli.infer_real(99, dims1, in);
  EXPECT_EQ(bad.head.status, net::WireStatus::UnknownModel);
  const auto ok = cli.infer_real(0, dims1, in);
  EXPECT_EQ(ok.head.status, net::WireStatus::Ok);

  // Malformed frames (integrity errors that close, recoverable ones that
  // keep the stream) are covered against the router by net_server_test's
  // BothFrontEnds/NetFrontEnd corpus.

  // The router's own worker heartbeats flow once links are up.
  EXPECT_TRUE(eventually([&] {
    const auto s = fleet.router.stats();
    return s.heartbeats_sent >= 1 && s.heartbeats_acked >= 1;
  }));
}

TEST(ShardRouter, DownWorkerParksTrafficAndGapOverflowSheds) {
  // A router whose worker 1 endpoint is never provided: traffic for global
  // model 1 parks in the gap queue until the queue cap, then sheds.
  Topology topo = test_topology();
  Worker w0(topo, 0);
  w0.start();
  Router::Options ro;
  ro.port = 0;
  ro.gap_queue = 2;
  Router router(test_topology(), ro);
  router.set_worker_endpoint(0, w0.port());
  router.start();

  net::Client cli;
  cli.connect(router.port());
  cli.set_io_timeout(20.0);

  // Worker 0's shard still serves while worker 1 is absent.
  const std::uint32_t dims1[] = {2, 64};
  const std::vector<float> in1(2 * 64, 0.25f);
  EXPECT_EQ(cli.infer_real(0, dims1, in1).head.status, net::WireStatus::Ok);

  // Three pipelined requests at the absent worker: two park, the third
  // overflows the gap queue and is shed by the router — a typed answer,
  // not a silent drop.
  const std::vector<float> in2(16 * 16, 0.5f);
  const std::span<const std::byte> payload2{
      reinterpret_cast<const std::byte*>(in2.data()), in2.size() * 4};
  const std::vector<std::uint32_t> d2 = {1, 16, 16};
  const auto c1 = cli.send_request(1, net::Dtype::F32, d2, payload2);
  const auto c2 = cli.send_request(1, net::Dtype::F32, d2, payload2);
  const auto c3 = cli.send_request(1, net::Dtype::F32, d2, payload2);
  net::Client::Result r;
  ASSERT_TRUE(cli.recv_response(r));
  EXPECT_EQ(r.head.correlation, c3);
  EXPECT_EQ(r.head.status, net::WireStatus::Shed);
  EXPECT_TRUE(eventually([&] { return router.stats().gap_queued >= 2; }));

  // The late worker arrives; the parked requests flush and complete Ok.
  Worker w1(topo, 1);
  w1.start();
  router.set_worker_endpoint(1, w1.port());
  for (const std::uint64_t want : {c1, c2}) {
    ASSERT_TRUE(cli.recv_response(r));
    EXPECT_EQ(r.head.correlation, want);
    EXPECT_EQ(r.head.status, net::WireStatus::Ok);
  }
  const auto rs = router.stats();
  EXPECT_EQ(rs.shed_by_router, 1u);
  EXPECT_GE(rs.worker_connects, 2u);
  router.stop();
  w1.stop();
  w0.stop();
}

TEST(ShardRouter, StopAnswersParkedRequestsShutDown) {
  // Requests parked for a worker that never comes must be answered (not
  // dropped) when the router stops.
  Router::Options ro;
  ro.port = 0;
  ro.stop_flush_s = 2.0;
  Router router(test_topology(), ro);
  router.start();

  net::Client cli;
  cli.connect(router.port());
  cli.set_io_timeout(10.0);
  const std::vector<std::uint32_t> dims1 = {2, 64};
  const std::vector<float> in1(2 * 64, 1.0f);
  const auto corr =
      cli.send_request(0, net::Dtype::F32, dims1,
                       {reinterpret_cast<const std::byte*>(in1.data()), in1.size() * 4});
  ASSERT_TRUE(eventually([&] { return router.stats().gap_queued >= 1; }));
  router.stop();
  net::Client::Result r;
  ASSERT_TRUE(cli.recv_response(r));
  EXPECT_EQ(r.head.correlation, corr);
  EXPECT_EQ(r.head.status, net::WireStatus::ShutDown);
}

// --------------------------------------------- supervisor: process fleet

TEST(ShardSupervisor, RejectsConfigsTheWorkerSpecCannotCarry) {
  // fork/exec'd workers rebuild their models from Topology::spec(), which
  // carries shapes only; a config it cannot carry must fail at
  // construction instead of serving a different model.
  Supervisor::Options so;
  so.shardd_path = shardd_path();
  const auto on_endpoint = [](std::size_t, std::uint16_t) {};

  Topology seeded = test_topology();
  core::Fno1dConfig c1 = small_1d();
  c1.seed = 12345u;
  seeded.add(c1, 1);
  try {
    Supervisor sup(seeded, so, on_endpoint);
    ADD_FAILURE() << "a non-default seed was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("model 3 (\"1d:2,8,2,64,16,2@1\")"), std::string::npos)
        << e.what();
  }

  Topology backend = test_topology();
  core::Fno2dConfig c2 = small_2d();
  c2.backend = core::Backend::FftOpt;
  backend.add(c2, 0);
  EXPECT_THROW((Supervisor(backend, so, on_endpoint)), std::invalid_argument);

  // The tfno_shardd demo topology: one small 1D and one small 2D model per
  // worker, every field but the shape at its default.
  Topology demo;
  for (std::size_t w = 0; w < 2; ++w) {
    core::Fno1dConfig d1;
    d1.hidden = 16;
    d1.n = 256;
    d1.modes = 16;
    d1.layers = 2;
    demo.add(d1, w);
    core::Fno2dConfig d2;
    d2.hidden = 8;
    d2.nx = 32;
    d2.ny = 32;
    d2.modes_x = 8;
    d2.modes_y = 8;
    d2.layers = 2;
    demo.add(d2, w);
  }
  EXPECT_NO_THROW((Supervisor(demo, so, on_endpoint)));
  EXPECT_NO_THROW((Supervisor(test_topology(), so, on_endpoint)));
}

TEST(ShardSupervisor, KilledWorkerIsRestartedWithNoSilentDrops) {
  // Two fork/exec'd tfno_shardd workers behind a router.  Worker 0 is
  // SIGKILLed mid-soak; every request must still get SOME response (Ok or
  // a typed Shed/ShutDown — silent drops fail the io timeout), the
  // supervisor must restart the worker, and Ok responses on its shard must
  // resume.
  Topology topo;
  topo.add(small_1d(), 0);
  topo.add(small_1d(), 1);

  Router::Options ro;
  ro.port = 0;
  ro.heartbeat_s = 0.1;
  ro.redial_min_s = 0.02;
  Router router(topo, ro);

  Supervisor::Options so;
  so.shardd_path = shardd_path();
  so.heartbeat_s = 0.1;
  so.backoff_min_s = 0.02;
  so.poll_s = 0.005;
  Supervisor sup(topo, so, [&router](std::size_t index, std::uint16_t port) {
    router.set_worker_endpoint(index, port);
  });

  router.start();
  sup.start();
  ASSERT_TRUE(eventually([&] { return router.stats().worker_connects >= 2; }, 20.0))
      << "workers never handshook; shardd at " << shardd_path();

  // Reference output for payload checks (same config seeds same weights in
  // the fork/exec'd workers).
  core::Engine ref_eng;
  core::Session ref = ref_eng.create_session(ref_eng.register_model(small_1d()));
  const auto in = random_real(ref.input_elems(), 42);
  std::vector<float> want(ref.output_elems());
  ref.run_real(in, want);

  net::Client cli;
  cli.connect(router.port());
  cli.set_io_timeout(15.0);
  const std::uint32_t dims[] = {2, 64};

  constexpr std::size_t kRounds = 40;
  std::size_t ok = 0;
  std::size_t shed = 0;
  const pid_t first_pid = sup.worker_pid(0);
  ASSERT_GT(first_pid, 0);
  for (std::size_t i = 0; i < kRounds; ++i) {
    if (i == 10) sup.kill_worker(0);
    for (const std::uint32_t model : {0u, 1u}) {
      // A silent drop would hang here until the io timeout throws and
      // fails the test: every accepted request must be answered.
      const auto r = cli.infer_real(model, dims, in);
      if (r.head.status == net::WireStatus::Ok) {
        ASSERT_TRUE(bitwise_equal(r.payload(), want.data(), want.size() * 4));
        ++ok;
      } else {
        ASSERT_TRUE(r.head.status == net::WireStatus::Shed ||
                    r.head.status == net::WireStatus::ShutDown)
            << net::wire_status_name(r.head.status);
        ++shed;
      }
    }
  }
  EXPECT_EQ(ok + shed, 2 * kRounds);
  // Worker 1 was untouched: at least every round on its shard is Ok.
  EXPECT_GE(ok, kRounds);

  // The supervisor noticed the death and respawned with a fresh pid.
  ASSERT_TRUE(eventually([&] { return sup.stats().restarts >= 1; }, 20.0));
  ASSERT_TRUE(eventually(
      [&] {
        const pid_t p = sup.worker_pid(0);
        return p > 0 && p != first_pid;
      },
      20.0));

  // And the restarted shard serves Ok again (fresh handshake + flush).
  ASSERT_TRUE(eventually(
      [&] {
        const auto r = cli.infer_real(0, dims, in);
        return r.head.status == net::WireStatus::Ok &&
               bitwise_equal(r.payload(), want.data(), want.size() * 4);
      },
      20.0));

  const auto ss = sup.stats();
  EXPECT_GE(ss.spawns, 3u);
  EXPECT_GE(ss.endpoints_seen, 3u);
  sup.stop();
  router.stop();
}

}  // namespace
}  // namespace turbofno::shard
