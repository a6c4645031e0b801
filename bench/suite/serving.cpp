// serve_router workload, the serving-layer probes and the wire-codec probe.
//
// The fleet is one shard::Router in front of two in-process shard::Workers,
// each serving one replica of a small 1D model (global ids 0 and 1, one per
// worker).  Compute per request is negligible, so what is measured is the
// per-request overhead: client wire, router hop, worker socket, serve queue
// and micro-batching.  One client connection drives it: in the open-loop
// phase a sender thread paces requests with sleep_until and a receiver
// thread times each response from its *scheduled* send time, so a stall
// also charges the requests queued behind it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "core/api.hpp"
#include "suite.hpp"

namespace tfno_suite {

using namespace turbofno;

namespace {

using Clock = std::chrono::steady_clock;

constexpr core::Fno1dConfig kServeModel{1, 8, 1, 64, 16, 1};
constexpr std::size_t kPayloads = 256;
constexpr double kOpenRate = 4000.0;  // requests per second, open loop
constexpr std::size_t kWindow = 16;   // requests in flight, closed loop
constexpr int kServeThreads = 1;

/// Seeded request payloads and their direct Session::run outputs, which
/// every served response must equal bitwise.
struct Traffic {
  std::unique_ptr<core::Engine> engine;
  std::optional<core::Session> session;
  std::vector<std::vector<c32>> payloads;
  std::vector<std::vector<c32>> expected;
  std::array<std::uint32_t, 2> dims{1, static_cast<std::uint32_t>(kServeModel.n)};

  explicit Traffic(unsigned seed) {
    core::EngineOptions eo;
    eo.threads = kServeThreads;
    engine = std::make_unique<core::Engine>(eo);
    session.emplace(engine->create_session(engine->register_model(kServeModel), 1));
    payloads.resize(kPayloads);
    expected.resize(kPayloads);
    for (std::size_t i = 0; i < kPayloads; ++i) {
      payloads[i].resize(kServeModel.in_channels * kServeModel.n);
      expected[i].resize(kServeModel.out_channels * kServeModel.n);
      core::burgers_initial_condition(payloads[i], kServeModel.n,
                                      seed * 1000003u + static_cast<unsigned>(i));
      session->run(payloads[i], expected[i], 1);
    }
  }

  [[nodiscard]] std::span<const std::byte> payload(std::size_t i) const {
    return std::as_bytes(std::span<const c32>(payloads[i % kPayloads]));
  }
  [[nodiscard]] bool matches(const net::Client::Result& res, std::size_t i) const {
    if (res.head.status != net::WireStatus::Ok) return false;
    const auto want = std::as_bytes(std::span<const c32>(expected[i % kPayloads]));
    const auto got = res.payload();
    return got.size() == want.size() && std::memcmp(got.data(), want.data(), got.size()) == 0;
  }
};

class Fleet {
 public:
  Fleet() {
    topo_.add(kServeModel, 0);
    topo_.add(kServeModel, 1);
    shard::Worker::Options wo;
    wo.serve.policy.max_batch = 8;
    wo.serve.policy.max_delay_s = 200e-6;
    wo.serve.workers = 1;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers_[i] = std::make_unique<shard::Worker>(topo_, i, wo);
      workers_[i]->start();
    }
    router_ = std::make_unique<shard::Router>(topo_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      router_->set_worker_endpoint(i, workers_[i]->port());
    }
    router_->start();
  }
  ~Fleet() {
    router_->stop();
    for (auto& w : workers_) w->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] shard::Router& router() { return *router_; }
  [[nodiscard]] std::array<std::unique_ptr<shard::Worker>, 2>& workers() { return workers_; }

 private:
  shard::Topology topo_;
  std::array<std::unique_ptr<shard::Worker>, 2> workers_;
  std::unique_ptr<shard::Router> router_;
};

void connect(net::Client& cli, std::uint16_t port) {
  net::Client::ConnectOptions co;
  co.timeout_s = 5.0;
  co.attempts = 3;
  co.io_timeout_s = 5.0;  // a lost response ends the phase instead of hanging
  cli.connect(port, "127.0.0.1", co);
}

/// Outcome of one load phase.  Every request counts as sent-and-Ok or as
/// failed (non-Ok status, wrong bytes, never sent, or never answered).
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<double> lat_ms;  // Ok responses
  std::vector<double> lag_ms;  // open loop: actual minus scheduled send
  std::vector<double> wire_total_us, wire_exec_us;
  double rps = 0.0;  // closed loop: Ok responses per second

  [[nodiscard]] std::uint64_t failed() const { return attempted - ok; }
};

/// Open loop at kOpenRate for `seconds`.  `two_models` alternates global
/// model ids 0 and 1 (both workers, through the router); otherwise every
/// request names model 0.
Phase open_loop(std::uint16_t port, bool two_models, double seconds, const Traffic& t) {
  const auto n = static_cast<std::size_t>(std::max(1.0, seconds * kOpenRate));
  Phase ph;
  ph.attempted = n;
  ph.lag_ms.assign(n, 0.0);
  std::vector<double> lat(n, -1.0);
  net::Client cli;
  connect(cli, port);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / kOpenRate));
  };
  // The sender only touches the client's send side and the receiver only
  // its receive side; the two share no client state.
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due(i));
        ph.lag_ms[i] = std::chrono::duration<double, std::milli>(Clock::now() - due(i)).count();
        cli.send_request(two_models ? static_cast<std::uint32_t>(i % 2) : 0, net::Dtype::C32,
                         t.dims, t.payload(i));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "open loop: send failed: %s\n", e.what());
    }
  });
  ph.wire_total_us.reserve(n);
  ph.wire_exec_us.reserve(n);
  try {
    net::Client::Result res;
    for (std::size_t got = 0; got < n && cli.recv_response(res); ++got) {
      const auto now = Clock::now();
      const std::size_t i = res.head.correlation - 1;
      if (i >= n || !t.matches(res, i)) continue;
      lat[i] = std::chrono::duration<double, std::milli>(now - due(i)).count();
      ph.wire_total_us.push_back(res.head.total_us);
      ph.wire_exec_us.push_back(res.head.exec_us);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "open loop: receive failed: %s\n", e.what());
  }
  sender.join();
  for (const double l : lat) {
    if (l >= 0.0) ph.lat_ms.push_back(l);
  }
  ph.ok = ph.lat_ms.size();
  return ph;
}

/// Closed loop with kWindow requests in flight for `seconds`.  The rate is
/// the median over 0.25 s slices, so a burst of outside load moves one
/// slice, not the result.
Phase closed_loop(std::uint16_t port, bool two_models, double seconds, const Traffic& t) {
  constexpr double kSlice = 0.25;
  Phase ph;
  net::Client cli;
  connect(cli, port);
  std::size_t sent = 0, received = 0, ok_in_slice = 0;
  std::vector<double> rates;
  net::Client::Result res;
  auto receive = [&] {
    if (!cli.recv_response(res)) throw std::runtime_error("server closed the connection");
    ++received;
    if (t.matches(res, res.head.correlation - 1)) {
      ++ph.ok;
      ++ok_in_slice;
    }
  };
  const auto t0 = Clock::now();
  auto slice_start = t0;
  try {
    while (seconds_since(t0) < seconds) {
      while (sent - received < kWindow) {
        cli.send_request(two_models ? static_cast<std::uint32_t>(sent % 2) : 0,
                         net::Dtype::C32, t.dims, t.payload(sent));
        ++sent;
      }
      receive();
      const double in_slice = seconds_since(slice_start);
      if (in_slice >= kSlice) {
        rates.push_back(static_cast<double>(ok_in_slice) / in_slice);
        ok_in_slice = 0;
        slice_start = Clock::now();
      }
    }
    while (received < sent) receive();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "closed loop: %s\n", e.what());
  }
  if (rates.empty()) {  // a phase shorter than one slice
    rates.push_back(static_cast<double>(ok_in_slice) / seconds_since(slice_start));
  }
  ph.attempted = sent;
  ph.rps = median(rates);
  return ph;
}

/// Set-up: fleet start to the first Ok response through the router.
double start_fleet(std::optional<Fleet>& fleet, const Traffic& t, Result& r) {
  fleet.reset();
  const auto t0 = Clock::now();
  fleet.emplace();
  net::Client cli;
  connect(cli, fleet->router().bound_port());
  const auto res = cli.infer(0, net::Dtype::C32, t.dims, t.payload(0));
  const double s = seconds_since(t0);
  ++r.attempted;
  if (!t.matches(res, 0)) {
    ++r.failed;
    r.fail("first response through the router is not the direct forward");
  }
  return s;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void tally(const Phase& ph, const char* what, Result& r) {
  r.attempted += ph.attempted;
  r.failed += ph.failed();
  if (ph.failed() != 0) {
    r.fail(std::string(what) + ": " + std::to_string(ph.failed()) + " of " +
           std::to_string(ph.attempted) + " requests failed");
  }
}

}  // namespace

Result run_serve_router(const Args& args) {
  Result r;
  r.threads = kServeThreads;
  if (args.trace) {
    probe_compute_layers(&kServeModel, nullptr, 8, false, kServeThreads, args, r);
    const std::array<std::uint32_t, 2> dims{1, static_cast<std::uint32_t>(kServeModel.n)};
    probe_codec(dims, false, args, r);
    probe_serving_layers(args, r);
    return r;
  }

  Traffic t(args.seed);
  std::optional<Fleet> fleet;
  std::vector<double> setup_s;
  // A fleet starts in under a millisecond, so take the median of many.
  for (int i = 0; i < (args.smoke ? 1 : 101); ++i) setup_s.push_back(start_fleet(fleet, t, r));
  const std::uint16_t port = fleet->router().bound_port();

  const double s = args.smoke ? std::min(args.seconds, 2.0) : args.seconds;
  tally(open_loop(port, true, 0.05 * s, t), "warm-up", r);
  const Phase open = open_loop(port, true, 0.95 * s, t);
  tally(open, "open loop", r);
  const double rss_mb = peak_rss_mb();

  const double lag_p99 = quantile(open.lag_ms, 0.99);
  if (lag_p99 > 1.0) {
    std::fprintf(stderr, "warning: load generator ran late, lag p99 %.3f ms\n", lag_p99);
  }
  const double err = spectral_layer_rel_err(t.session->model1d(), nullptr, args.seed, false);
  if (!(err < 1e-4)) r.fail("spectral_rel_err " + std::to_string(err) + " >= 1e-4");

  r.add("setup_s", median(setup_s), "s");
  r.add("latency_ms_p1", quantile(open.lat_ms, 0.01), "ms");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("spectral_rel_err", err, "ratio");
  std::fprintf(stderr, "serve_router: %llu requests, p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms\n",
               static_cast<unsigned long long>(r.attempted), quantile(open.lat_ms, 0.5),
               quantile(open.lat_ms, 0.99), lag_p99);
  return r;
}

void probe_serving_layers(const Args& args, Result& out) {
  const Traffic t(args.seed);
  Fleet fleet;
  const std::uint16_t router_port = fleet.router().bound_port();
  const std::uint16_t direct_port = fleet.workers()[0]->port();
  const double open_s = args.smoke ? 0.3 : 3.0;
  const double closed_s = args.smoke ? 0.2 : 2.0;

  tally(open_loop(router_port, true, open_s / 6, t), "warm-up", out);
  const Phase ro = open_loop(router_port, true, open_s, t);
  const Phase rc = closed_loop(router_port, true, closed_s, t);
  // The same two phases straight at worker 0, skipping the router.
  const Phase dopen = open_loop(direct_port, false, open_s, t);
  const Phase dclosed = closed_loop(direct_port, false, closed_s, t);
  for (const Phase* ph : {&ro, &rc, &dopen, &dclosed}) tally(*ph, "serving probe", out);

  // serve: the workers' own latency counters and stats, summed.
  double queue_s = 0.0, gather_s = 0.0, exec_s = 0.0, scatter_s = 0.0;
  std::uint64_t completed = 0, batches = 0, batched = 0, shed = 0, rejected = 0, pauses = 0;
  for (const auto& w : fleet.workers()) {
    auto lc = w->server()->latency_counters();
    queue_s += lc.stage("queue-wait").seconds;
    gather_s += lc.stage("gather").seconds;
    exec_s += lc.stage("execute").seconds;
    scatter_s += lc.stage("scatter").seconds;
    const auto st = w->server()->stats();
    completed += st.completed;
    batches += st.batches;
    batched += st.batched_requests;
    shed += st.shed_normal + st.shed_high;
    rejected += st.rejected;
    pauses += w->stats().backpressure_pauses;
  }
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out.add("serve.queue_wait_us", per(queue_s, completed) * 1e6, "us");
  out.add("serve.gather_us", per(gather_s, batches) * 1e6, "us");
  out.add("serve.execute_us", per(exec_s, batches) * 1e6, "us");
  out.add("serve.scatter_us", per(scatter_s, batches) * 1e6, "us");
  out.add("serve.avg_micro_batch", per(static_cast<double>(batched), batches), "requests");
  out.add("serve.shed", static_cast<double>(shed), "count");
  out.add("serve.rejected", static_cast<double>(rejected), "count");
  // The wire carries whole microseconds, so a median would repeat exactly.
  out.add("serve.wire_total_us_mean", mean(ro.wire_total_us), "us");
  out.add("serve.wire_exec_us_mean", mean(ro.wire_exec_us), "us");

  out.add("net.direct_req_ms_p50", quantile(dopen.lat_ms, 0.5), "ms");
  out.add("net.direct_req_ms_p99", quantile(dopen.lat_ms, 0.99), "ms");
  out.add("net.direct_sat_rps", dclosed.rps, "1/s");
  out.add("net.backpressure_pauses", static_cast<double>(pauses), "count");

  const auto rs = fleet.router().stats();
  out.add("shard.hop_us_p50",
          (quantile(ro.lat_ms, 0.5) - quantile(dopen.lat_ms, 0.5)) * 1e3, "us");
  out.add("shard.req_ms_p99", quantile(ro.lat_ms, 0.99), "ms");
  out.add("shard.sat_rps", rc.rps, "1/s");
  out.add("shard.sat_ratio", rc.rps / dclosed.rps, "ratio");
  out.add("shard.frames_routed", static_cast<double>(rs.frames_routed), "count");
  out.add("shard.shed_by_router", static_cast<double>(rs.shed_by_router), "count");
  out.add("shard.gap_queued", static_cast<double>(rs.gap_queued), "count");

  out.add("loadgen.lag_ms_p99", quantile(ro.lag_ms, 0.99), "ms");
  out.add("loadgen.sent", static_cast<double>(ro.attempted), "count");
}

void probe_codec(std::span<const std::uint32_t> dims, bool real, const Args& args,
                 Result& out) {
  net::RequestHead h;
  h.dtype = real ? net::Dtype::F32 : net::Dtype::C32;
  h.ndim = static_cast<std::uint16_t>(dims.size());
  std::copy(dims.begin(), dims.end(), h.dims.begin());
  const std::size_t bytes = h.elems() * net::dtype_bytes(h.dtype);
  std::vector<c32> data((bytes + sizeof(c32) - 1) / sizeof(c32));
  core::fill_random(data, args.seed);
  const auto payload = std::as_bytes(std::span<const c32>(data)).first(bytes);
  std::vector<std::byte> req(net::encoded_request_bytes(h.ndim, bytes));
  std::vector<std::byte> resp(net::encoded_response_bytes(bytes));
  std::memcpy(resp.data() + net::kHeaderBytes + net::kResponsePrefixBytes, payload.data(), bytes);
  net::ResponseHead rh;
  rh.dtype = h.dtype;

  // About 1 MiB of frames per timed repetition, so small frames still
  // give repetitions long enough to time.
  const std::size_t frames = std::max<std::size_t>(1, (std::size_t{1} << 20) / req.size());
  const ProbeBudget pb{args.smoke ? 0.02 : 0.1, args.smoke ? std::size_t{2} : std::size_t{5}};
  std::uint64_t sink = 0;
  bool decoded = true;
  auto per_frame_us = [&](auto&& one) {
    return fastest_run(pb, [&] {
             for (std::size_t i = 0; i < frames; ++i) one(i);
           }) /
           static_cast<double>(frames) * 1e6;
  };
  auto decode = [&](std::span<const std::byte> frame, bool request) {
    net::FrameHeader fh;
    std::span<const std::byte> pl;
    const auto body = frame.subspan(net::kHeaderBytes);
    bool ok = net::decode_header(frame, fh, net::kMaxMaxFrameBytes) == net::DecodeError::None &&
              net::verify_body(fh, body) == net::DecodeError::None;
    if (request) {
      net::RequestHead got;
      ok = ok && net::decode_request(body.first(fh.body_len), got, pl) == net::DecodeError::None;
      sink += got.correlation;
    } else {
      net::ResponseHead got;
      ok = ok && net::decode_response(body.first(fh.body_len), got, pl) == net::DecodeError::None;
      sink += got.correlation;
    }
    decoded = decoded && ok;
  };

  out.add("net.encode_request_us", per_frame_us([&](std::size_t i) {
            h.correlation = i;
            net::encode_request(req, h, payload);
          }),
          "us");
  out.add("net.decode_request_us", per_frame_us([&](std::size_t) { decode(req, true); }), "us");
  out.add("net.encode_response_us", per_frame_us([&](std::size_t i) {
            rh.correlation = i;
            net::encode_response_prefix(resp, rh, bytes);
            net::seal_response(resp);
          }),
          "us");
  out.add("net.decode_response_us", per_frame_us([&](std::size_t) { decode(resp, false); }),
          "us");
  if (!decoded || sink == 0) out.fail("codec probe: a frame failed to decode");
}

}  // namespace tfno_suite
