// Loopback fault-injection and end-to-end tests of the socket serving
// front-end.
//
// The golden property mirrors serve_test's: a request served over the
// wire — framed, checksummed, decoded, queued, batched — must produce
// payload bytes bitwise-identical to running the same input through a
// direct core::Session on the same engine.  On top of that, this suite
// attacks the server: malformed frames, client disconnects mid-request,
// slow readers that trip write backpressure, shutdown with in-flight
// frames, and a multi-threaded mixed-model soak.  The malformed-frame
// corpus also runs against a shard::Router, which must answer exactly
// like a single-process server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "net/client.hpp"
#include "net/socket_server.hpp"
#include "shard/router.hpp"
#include "shard/worker.hpp"
#include "test_util.hpp"

namespace turbofno::net {
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

/// A 1D model with a fat (128 KiB) payload, for buffer-pressure tests.
core::Fno1dConfig fat_1d() {
  core::Fno1dConfig c;
  c.in_channels = 1;
  c.hidden = 2;
  c.out_channels = 1;
  c.n = 16384;
  c.modes = 8;
  c.layers = 1;
  return c;
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

/// Waits (bounded) until `pred` holds — for counters that update as the
/// server's io/executor threads make progress.
template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Patches one body byte of an encoded frame and re-seals the checksum, so
/// the frame is *structurally* valid but semantically malformed.
void patch_body_byte(std::vector<std::byte>& frame, std::size_t body_off, std::uint8_t value) {
  frame[kHeaderBytes + body_off] = static_cast<std::byte>(value);
  const std::uint32_t body_len = load_u32le(frame.data() + 8);
  store_u32le(frame.data() + 12, crc32({frame.data() + kHeaderBytes, body_len}));
}

std::vector<std::byte> valid_request_frame(std::uint32_t model, std::size_t elems,
                                           std::uint64_t correlation = 77) {
  RequestHead h;
  h.correlation = correlation;
  h.model = model;
  h.dtype = Dtype::F32;
  h.qos = Qos::Normal;
  h.ndim = 1;
  h.dims[0] = static_cast<std::uint32_t>(elems);
  const std::vector<float> payload(elems, 0.5f);
  std::vector<std::byte> frame(encoded_request_bytes(1, elems * 4));
  encode_request(frame, h,
                 {reinterpret_cast<const std::byte*>(payload.data()), elems * 4});
  return frame;
}

// --------------------------------------------------------------- golden E2E

TEST(NetServer, LoopbackBitwiseEqualToSession) {
  SocketServer::Options o;
  o.port = 0;
  o.io_threads = 2;
  o.serve.workers = 2;
  SocketServer srv(o);
  const auto m1 = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  const auto m2 = static_cast<std::uint32_t>(srv.load_model(small_2d()));
  srv.start();

  // Direct references on the same engine: same configs seed the same
  // weights, so Session::run / run_real is the ground truth bit for bit.
  auto& eng = *srv.server()->engine();
  core::Session ref1 = eng.create_session(eng.register_model(small_1d()));
  core::Session ref2 = eng.create_session(eng.register_model(small_2d()));

  Client cli;
  cli.connect(srv.port());

  const core::Fno1dConfig c1 = small_1d();
  const core::Fno2dConfig c2 = small_2d();
  const std::uint32_t dims1[] = {static_cast<std::uint32_t>(c1.in_channels),
                                 static_cast<std::uint32_t>(c1.n)};
  const std::uint32_t dims2[] = {static_cast<std::uint32_t>(c2.in_channels),
                                 static_cast<std::uint32_t>(c2.nx),
                                 static_cast<std::uint32_t>(c2.ny)};

  // 1D complex lane.
  {
    const auto in = random_signal(ref1.input_elems(), 101);
    std::vector<c32> want(ref1.output_elems());
    ref1.run(in, want);
    const auto r = cli.infer_c32(m1, dims1, in, Qos::High);
    ASSERT_EQ(r.head.status, WireStatus::Ok) << wire_status_name(r.head.status);
    EXPECT_GE(r.head.micro_batch, 1u);
    EXPECT_TRUE(bitwise_equal(r.payload(), want.data(), want.size() * sizeof(c32)));
  }
  // 2D complex lane.
  {
    const auto in = random_signal(ref2.input_elems(), 202);
    std::vector<c32> want(ref2.output_elems());
    ref2.run(in, want);
    const auto r = cli.infer_c32(m2, dims2, in);
    ASSERT_EQ(r.head.status, WireStatus::Ok);
    EXPECT_TRUE(bitwise_equal(r.payload(), want.data(), want.size() * sizeof(c32)));
  }
  // 1D real (RFFT) lane.
  {
    const auto in = random_real(ref1.input_elems(), 303);
    std::vector<float> want(ref1.output_elems());
    ref1.run_real(in, want);
    const auto r = cli.infer_real(m1, dims1, in);
    ASSERT_EQ(r.head.status, WireStatus::Ok);
    EXPECT_TRUE(bitwise_equal(r.payload(), want.data(), want.size() * sizeof(float)));
  }
  // 2D real lane.
  {
    const auto in = random_real(ref2.input_elems(), 404);
    std::vector<float> want(ref2.output_elems());
    ref2.run_real(in, want);
    const auto r = cli.infer_real(m2, dims2, in, Qos::High);
    ASSERT_EQ(r.head.status, WireStatus::Ok);
    EXPECT_TRUE(bitwise_equal(r.payload(), want.data(), want.size() * sizeof(float)));
  }
  srv.stop();
  const auto s = srv.stats();
  EXPECT_EQ(s.frames_decoded, 4u);
  EXPECT_EQ(s.responses_sent, 4u);
  EXPECT_EQ(s.protocol_errors, 0u);
}

// ------------------------------------------- malformed frames, both front-ends

/// A front-end under test serving small_1d() as model 0: a SocketServer,
/// or a shard::Router in front of two in-process workers.  Clients cannot
/// tell the two apart, so one malformed-frame corpus runs against both.
class FrontEnd {
 public:
  enum class Kind { SocketServer, Router };

  FrontEnd(Kind kind, std::size_t max_frame_bytes) {
    if (kind == Kind::SocketServer) {
      SocketServer::Options o;
      o.port = 0;
      o.max_frame_bytes = max_frame_bytes;
      server_ = std::make_unique<SocketServer>(o);
      (void)server_->load_model(small_1d());
      server_->start();
      return;
    }
    shard::Topology topo;
    topo.add(small_1d(), 0);
    topo.add(small_2d(), 1);
    for (std::size_t w = 0; w < 2; ++w) {
      workers_.push_back(std::make_unique<shard::Worker>(topo, w));
      workers_.back()->start();
    }
    shard::Router::Options ro;
    ro.max_frame_bytes = max_frame_bytes;
    router_ = std::make_unique<shard::Router>(topo, ro);
    for (std::size_t w = 0; w < 2; ++w) router_->set_worker_endpoint(w, workers_[w]->port());
    router_->start();
  }
  ~FrontEnd() {
    if (router_) router_->stop();
    for (auto& w : workers_) w->stop();
    if (server_) server_->stop();
  }

  [[nodiscard]] std::uint16_t port() const {
    return server_ ? server_->port() : router_->port();
  }
  [[nodiscard]] std::uint64_t protocol_errors() const {
    return server_ ? server_->stats().protocol_errors : router_->stats().protocol_errors;
  }

 private:
  std::unique_ptr<SocketServer> server_;
  std::vector<std::unique_ptr<shard::Worker>> workers_;
  std::unique_ptr<shard::Router> router_;
};

class NetFrontEnd : public ::testing::TestWithParam<FrontEnd::Kind> {};

TEST_P(NetFrontEnd, MalformedFramesGetTypedErrorsAndIntegrityErrorsClose) {
  const FrontEnd fe(GetParam(), 0);
  const std::uint32_t m = 0;
  const std::size_t elems = 2 * 64;

  // Every send below is a whole frame, header plus body.
  const auto expect_error_then_close = [&](std::vector<std::byte> bytes, WireStatus want) {
    Client cli;
    cli.connect(fe.port());
    cli.set_io_timeout(20.0);
    cli.send_bytes(bytes);
    Client::Result r;
    ASSERT_TRUE(cli.recv_response(r)) << "no error response for " << wire_status_name(want);
    EXPECT_EQ(r.head.status, want) << wire_status_name(r.head.status);
    EXPECT_TRUE(r.payload().empty());
    EXPECT_TRUE(cli.recv_closed()) << "connection not closed after " << wire_status_name(want);
  };

  // Integrity errors: typed response, then the front-end closes the stream.
  {
    auto f = valid_request_frame(m, elems);
    f[0] = static_cast<std::byte>('X');
    expect_error_then_close(std::move(f), WireStatus::BadMagic);
  }
  {
    auto f = valid_request_frame(m, elems);
    f[4] = static_cast<std::byte>(9);
    expect_error_then_close(std::move(f), WireStatus::BadVersion);
  }
  {
    auto f = valid_request_frame(m, elems);
    f.back() ^= static_cast<std::byte>(1);  // body bit flip: CRC mismatch
    expect_error_then_close(std::move(f), WireStatus::BadChecksum);
  }

  // Recoverable errors: typed response, connection survives and serves a
  // following good request.
  const auto expect_error_then_ok = [&](std::vector<std::byte> bytes, WireStatus want) {
    Client cli;
    cli.connect(fe.port());
    cli.set_io_timeout(20.0);
    cli.send_bytes(bytes);
    Client::Result r;
    ASSERT_TRUE(cli.recv_response(r));
    EXPECT_EQ(r.head.status, want) << wire_status_name(r.head.status);
    const std::uint32_t dims[] = {2, 64};
    const std::vector<float> in(elems, 1.0f);
    const auto ok = cli.infer_real(m, dims, in);
    EXPECT_EQ(ok.head.status, WireStatus::Ok) << "connection did not survive "
                                              << wire_status_name(want);
  };

  {
    // Shape/payload disagreement: dims claim twice the payload.
    auto f = valid_request_frame(m, elems);
    patch_body_byte(f, 20, 0xFF);  // corrupt dims[0] low byte
    expect_error_then_ok(std::move(f), WireStatus::ShapeMismatch);
  }
  {
    // Unknown model id.
    auto f = valid_request_frame(m, elems);
    patch_body_byte(f, 8, 0xEE);  // model low byte -> unregistered id
    expect_error_then_ok(std::move(f), WireStatus::UnknownModel);
  }
  {
    // dtype out of range: body prefix undecodable.
    auto f = valid_request_frame(m, elems);
    patch_body_byte(f, 12, 7);
    expect_error_then_ok(std::move(f), WireStatus::BadFrame);
  }
  {
    // Payload that matches the declared dims but not the model's shape:
    // reaches the inference server, which refuses it as InvalidInput.
    auto f = valid_request_frame(m, elems / 2);
    expect_error_then_ok(std::move(f), WireStatus::InvalidInput);
  }

  EXPECT_GE(fe.protocol_errors(), 6u);
}

TEST_P(NetFrontEnd, OverLimitDeclaredLengthCloses) {
  const FrontEnd fe(GetParam(), 4096);
  Client cli;
  cli.connect(fe.port());
  cli.set_io_timeout(20.0);
  // 8192 payload bytes declared and sent; the front-end rejects on the
  // *declared* length right after the header, never buffering the body.
  const auto f = valid_request_frame(0, 2048);
  cli.send_bytes(f);
  Client::Result r;
  ASSERT_TRUE(cli.recv_response(r));
  EXPECT_EQ(r.head.status, WireStatus::TooLarge);
  EXPECT_TRUE(cli.recv_closed());
}

INSTANTIATE_TEST_SUITE_P(BothFrontEnds, NetFrontEnd,
                         ::testing::Values(FrontEnd::Kind::SocketServer, FrontEnd::Kind::Router),
                         [](const ::testing::TestParamInfo<FrontEnd::Kind>& info) {
                           return info.param == FrontEnd::Kind::SocketServer ? "SocketServer"
                                                                             : "Router";
                         });

// ------------------------------------------------------ client disconnects

TEST(NetServer, ClientDisconnectMidFrameAndMidRequestIsClean) {
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  const std::size_t elems = 2 * 64;
  srv.start();

  // Disconnect mid-header.
  {
    Client cli;
    cli.connect(srv.port());
    const auto f = valid_request_frame(m, elems);
    cli.send_bytes({f.data(), 7});
    cli.close();
  }
  // Disconnect mid-body.
  {
    Client cli;
    cli.connect(srv.port());
    const auto f = valid_request_frame(m, elems);
    cli.send_bytes({f.data(), f.size() - 13});
    cli.close();
  }
  // Disconnect after a full request, before the response: the in-flight
  // inference finishes against buffers the server owns; its response is
  // dropped, never written into freed memory.
  {
    Client cli;
    cli.connect(srv.port());
    cli.send_request(m, Dtype::F32, std::vector<std::uint32_t>{2, 64},
                     std::vector<std::byte>(elems * 4));
    cli.close();
  }
  ASSERT_TRUE(eventually([&] { return srv.stats().connections_closed >= 3; }));

  // The server is unharmed: a fresh client round-trips.
  Client cli;
  cli.connect(srv.port());
  const std::uint32_t dims[] = {2, 64};
  const std::vector<float> in(elems, 2.0f);
  const auto r = cli.infer_real(m, dims, in);
  EXPECT_EQ(r.head.status, WireStatus::Ok);
  srv.stop();
}

// ------------------------------------------------------------- backpressure

TEST(NetServer, SlowReaderTripsWriteBackpressureAndLosesNothing) {
  SocketServer::Options o;
  o.port = 0;
  o.max_buffered_bytes = 64 * 1024;  // well below the responses in flight
  o.socket_sndbuf_bytes = 32 * 1024;  // keep the kernel from absorbing them
  SocketServer srv(o);
  const auto m = static_cast<std::uint32_t>(srv.load_model(fat_1d()));
  srv.start();

  constexpr std::size_t kRequests = 32;  // 32 x 128 KiB responses = 4 MiB
  const std::size_t elems = 16384;
  const auto in = random_real(elems, 7);
  const std::vector<std::uint32_t> dims = {1, 16384};

  Client cli;
  // A tiny receive buffer caps the TCP window, so the kernel cannot absorb
  // the response backlog — it must pile up in the server's write queue.
  cli.set_recv_buffer(16 * 1024);
  cli.connect(srv.port());

  // Reader thread starts slow (lets the outbound queue pile up), then
  // drains everything; the sender pipelines without waiting.
  std::atomic<std::size_t> ok{0};
  std::thread reader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Client::Result r;
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (!cli.recv_response(r)) break;
      if (r.head.status == WireStatus::Ok && r.payload().size() == elems * 4) ++ok;
    }
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    cli.send_request(m, Dtype::F32, dims,
                     {reinterpret_cast<const std::byte*>(in.data()), elems * 4});
  }
  reader.join();
  EXPECT_EQ(ok.load(), kRequests);
  // The slow reader must have parked its connection's reads at least once.
  EXPECT_GE(srv.stats().backpressure_pauses, 1u);
  EXPECT_EQ(srv.stats().dropped_responses, 0u);
  srv.stop();
}

// ------------------------------------------------- shutdown with in-flight

TEST(NetServer, StopDeliversEveryDecodedFrameThenCloses) {
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  const std::size_t elems = 2 * 64;
  srv.start();

  Client cli;
  cli.connect(srv.port());
  constexpr std::size_t kRequests = 16;
  const auto in = random_real(elems, 11);
  const std::vector<std::uint32_t> dims = {2, 64};
  for (std::size_t i = 0; i < kRequests; ++i) {
    cli.send_request(m, Dtype::F32, dims,
                     {reinterpret_cast<const std::byte*>(in.data()), elems * 4});
  }
  // Wait until every frame is decoded and in flight, then stop: drain
  // semantics require each accepted request to be answered before close.
  ASSERT_TRUE(eventually([&] { return srv.stats().frames_decoded == kRequests; }));
  srv.stop();

  std::size_t responses = 0;
  Client::Result r;
  while (cli.recv_response(r)) {
    EXPECT_EQ(r.head.status, WireStatus::Ok);
    ++responses;
  }
  EXPECT_EQ(responses, kRequests);  // ... and then EOF, which ends the loop
  EXPECT_FALSE(srv.running());
}

TEST(NetServer, StopFromAnotherThreadWhilePipeliningAnswersEveryDecodedFrame) {
  // stop() races frames that are still being decoded: a frame decoded
  // before the io threads park their reads must be submitted before the
  // drain, and its completion must reach the wire before the io thread
  // exits.  Every decoded frame gets exactly one Ok response, then EOF.
  const std::size_t elems = 2 * 64;
  const auto in = random_real(elems, 13);
  const std::vector<std::uint32_t> dims = {2, 64};
  const std::span<const std::byte> payload{reinterpret_cast<const std::byte*>(in.data()),
                                           elems * 4};
  std::vector<std::byte> burst;  // 64 pipelined requests in one write
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto f = valid_request_frame(0, elems, 1000 + i);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  for (int round = 0; round < 20; ++round) {
    SocketServer::Options o;
    o.port = 0;
    o.io_threads = 2;
    SocketServer srv(o);
    const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
    srv.start();
    Client cli;
    cli.connect(srv.port());
    cli.set_io_timeout(20.0);

    std::atomic<std::size_t> sent{0};
    std::atomic<std::size_t> received{0};
    std::atomic<bool> stop_sending{false};
    std::atomic<bool> sender_done{false};
    std::thread sender([&] {
      // Keeps up to 16 requests in flight; when told to stop it fires a
      // last burst, so stop() begins with frames still on the wire.
      while (!stop_sending.load()) {
        if (sent.load() - received.load() >= 16) {
          std::this_thread::yield();
          continue;
        }
        cli.send_request(m, Dtype::F32, dims, payload);
        ++sent;
      }
      cli.send_bytes(burst);
      sender_done = true;
    });
    std::size_t ok = 0;
    std::size_t not_ok = 0;
    bool eof = false;
    std::thread reader([&] {
      Client::Result r;
      while (cli.recv_response(r)) {
        ++(r.head.status == WireStatus::Ok ? ok : not_ok);
        ++received;
      }
      eof = true;
    });
    ASSERT_TRUE(eventually([&] { return srv.stats().frames_decoded >= 8; }));
    std::thread stopper([&] {
      stop_sending = true;
      while (!sender_done.load()) std::this_thread::yield();
      srv.stop();
    });
    stopper.join();
    sender.join();
    reader.join();
    EXPECT_TRUE(eof) << "round " << round;
    EXPECT_EQ(not_ok, 0u) << "round " << round;
    EXPECT_EQ(ok, srv.stats().frames_decoded) << "round " << round;
    EXPECT_EQ(srv.stats().responses_sent, srv.stats().frames_decoded) << "round " << round;
  }
}

// -------------------------------------------------- admission over the wire

TEST(NetServer, DeadlineInfeasibleNormalShedsWhileHighServes) {
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  const std::size_t elems = 2 * 64;
  srv.start();

  // Teach admission control that this model "costs" an hour per request:
  // any Normal deadline in microseconds range is hopeless.
  srv.server()->set_exec_estimate(m, 3600.0);

  Client cli;
  cli.connect(srv.port());
  const std::uint32_t dims[] = {2, 64};
  const std::vector<float> in(elems, 1.0f);

  // Normal + 1 s deadline: shed at admission, typed on the wire.
  const auto shed = cli.infer_real(m, dims, in, Qos::Normal, 1'000'000);
  EXPECT_EQ(shed.head.status, WireStatus::Shed) << wire_status_name(shed.head.status);
  EXPECT_TRUE(shed.payload().empty());

  // High without a deadline: admission control is unarmed; completes fine.
  const auto ok = cli.infer_real(m, dims, in, Qos::High);
  EXPECT_EQ(ok.head.status, WireStatus::Ok);

  const auto s = srv.server()->stats();
  EXPECT_EQ(s.shed_normal, 1u);
  EXPECT_EQ(s.shed_high, 0u);
  srv.stop();
}

// ---------------------------------------------------------------- the soak

TEST(NetServer, EightClientThreadsMixedModelsBitwiseSoak) {
  SocketServer::Options o;
  o.port = 0;
  o.io_threads = 2;
  o.serve.workers = 2;
  o.serve.policy.max_batch = 4;
  SocketServer srv(o);
  const auto m1 = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  const auto m2 = static_cast<std::uint32_t>(srv.load_model(small_2d()));
  srv.start();

  auto& eng = *srv.server()->engine();
  const auto h1 = eng.register_model(small_1d());
  const auto h2 = eng.register_model(small_2d());

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 6;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread reference sessions: Sessions are independent, and
      // running them per-thread keeps the ground truth off the shared path.
      core::Session ref1 = eng.create_session(h1);
      core::Session ref2 = eng.create_session(h2);
      Client cli;
      cli.connect(srv.port());
      const std::uint32_t dims1[] = {2, 64};
      const std::uint32_t dims2[] = {1, 16, 16};
      for (std::size_t round = 0; round < kRounds; ++round) {
        const unsigned seed = static_cast<unsigned>(1000 * t + round);
        const Qos qos = (t + round) % 2 == 0 ? Qos::High : Qos::Normal;
        // 1D complex.
        {
          const auto in = random_signal(ref1.input_elems(), seed);
          std::vector<c32> want(ref1.output_elems());
          ref1.run(in, want);
          const auto r = cli.infer_c32(m1, dims1, in, qos);
          if (r.head.status != WireStatus::Ok ||
              !bitwise_equal(r.payload(), want.data(), want.size() * sizeof(c32))) {
            ++failures;
          }
        }
        // 2D complex.
        {
          const auto in = random_signal(ref2.input_elems(), seed + 1);
          std::vector<c32> want(ref2.output_elems());
          ref2.run(in, want);
          const auto r = cli.infer_c32(m2, dims2, in, qos);
          if (r.head.status != WireStatus::Ok ||
              !bitwise_equal(r.payload(), want.data(), want.size() * sizeof(c32))) {
            ++failures;
          }
        }
        // 1D real lane.
        {
          const auto in = random_real(ref1.input_elems(), seed + 2);
          std::vector<float> want(ref1.output_elems());
          ref1.run_real(in, want);
          const auto r = cli.infer_real(m1, dims1, in, qos);
          if (r.head.status != WireStatus::Ok ||
              !bitwise_equal(r.payload(), want.data(), want.size() * sizeof(float))) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  // The io thread tallies responses_sent just after the kernel takes the
  // last byte — a client can observe its response slightly earlier.
  EXPECT_TRUE(eventually(
      [&] { return srv.stats().responses_sent == kThreads * kRounds * 3; }));
  const auto s = srv.stats();
  EXPECT_EQ(s.frames_decoded, kThreads * kRounds * 3);
  EXPECT_EQ(s.protocol_errors, 0u);
  srv.stop();
  EXPECT_EQ(srv.stats().connections_closed, srv.stats().connections_accepted);
}

// ----------------------------------------------------------- lifecycle races

// Regression tests for data races on the server's lifecycle state that
// ThreadSanitizer flagged: running()/port()/stats() used to read plain
// members that start()/stop() wrote concurrently, and the listen fd was
// close()d while io thread 0 could still pass it to accept4.  They now go
// through atomics (the fd is shut down at stop() and closed only after the
// io threads join) and a lifecycle mutex serializes start()/stop().  These
// tests run under the tsan CI job, where any regression is a hard failure.

TEST(NetServer, ObserversAreSafeDuringStartAndStop) {
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  (void)srv.load_model(small_1d());

  std::atomic<bool> observers_run{true};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> observers;
  observers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    observers.emplace_back([&] {
      while (observers_run.load(std::memory_order_acquire)) {
        // Each of these used to race the start()/stop() writes below.
        sink.fetch_add(srv.running() ? 1 : 0, std::memory_order_relaxed);
        sink.fetch_add(srv.port(), std::memory_order_relaxed);
        sink.fetch_add(srv.stats().connections_accepted, std::memory_order_relaxed);
      }
    });
  }

  srv.start();
  EXPECT_TRUE(srv.running());
  // Give the observers time to overlap the running server, then wind down
  // while they are still spinning.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  srv.stop();
  EXPECT_FALSE(srv.running());

  observers_run.store(false, std::memory_order_release);
  for (auto& t : observers) t.join();
}

TEST(NetServer, ConcurrentStopCallsAreSerialized) {
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
  srv.start();

  // Leave a request in flight so stop() has real wind-down work to race on.
  Client cli;
  cli.connect(srv.port());
  cli.send_bytes(valid_request_frame(m, small_1d().in_channels * small_1d().n));

  std::vector<std::thread> stoppers;
  stoppers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&srv] { srv.stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(srv.running());
  // Idempotent after the dust settles (the destructor calls it again too).
  srv.stop();
}

TEST(NetServer, StopWhileClientsConnect) {
  // Accept-vs-stop: clients hammer connect while stop() retires the listen
  // socket.  Connections may fail (the server is going away) but nothing
  // may crash or race on the fd.
  SocketServer::Options o;
  o.port = 0;
  SocketServer srv(o);
  (void)srv.load_model(small_1d());
  srv.start();
  const std::uint16_t port = srv.port();

  std::atomic<bool> keep_connecting{true};
  std::thread connector([&] {
    while (keep_connecting.load(std::memory_order_acquire)) {
      try {
        Client cli;
        cli.connect(port);
      } catch (const std::exception&) {
        // refused mid-shutdown: expected
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  srv.stop();
  keep_connecting.store(false, std::memory_order_release);
  connector.join();
  EXPECT_FALSE(srv.running());
}

// ---------------------------------------------------------------- env knobs

TEST(NetServer, EnvKnobsDrivePortAndFrameLimit) {
  // TURBOFNO_NET_PORT=0 via the environment: the default-port sentinel
  // resolves to an ephemeral bind.
  ::setenv("TURBOFNO_NET_PORT", "0", 1);
  ::setenv("TURBOFNO_NET_MAX_FRAME", "4096", 1);
  {
    SocketServer srv;  // all defaults: port and frame limit come from env
    const auto m = static_cast<std::uint32_t>(srv.load_model(small_1d()));
    srv.start();
    EXPECT_NE(srv.port(), 0);  // ephemeral bind resolved to a real port

    Client cli;
    cli.connect(srv.port());
    // A frame over the env-configured 4096-byte limit is rejected.
    const auto f = valid_request_frame(m, 2048);  // 8 KiB payload
    cli.send_bytes(f);
    Client::Result r;
    ASSERT_TRUE(cli.recv_response(r));
    EXPECT_EQ(r.head.status, WireStatus::TooLarge);
    EXPECT_TRUE(cli.recv_closed());
    srv.stop();
  }
  ::unsetenv("TURBOFNO_NET_PORT");
  ::unsetenv("TURBOFNO_NET_MAX_FRAME");
}

}  // namespace
}  // namespace turbofno::net
