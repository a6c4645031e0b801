// Serving-layer throughput: dynamic micro-batching vs one-request-at-a-time.
//
// For each model shape, a fixed stream of single-field inference requests is
// pushed through three execution modes:
//   serial      direct core::Fno forward per request, no server (capacity 1)
//   serve-1     InferenceServer with max_batch = 1 (one-at-a-time serving)
//   serve-B     InferenceServer with max_batch = B for B in {2, 4, 8, 16}
// and the requests/second of each mode is reported.  Batching amortizes the
// per-forward fixed costs (stage dispatch, workspace setup, plan lookups,
// pool handoffs) across the micro-batch; the win is largest for the small
// requests a high-traffic service actually sees.
//
// A QoS axis rides along: for each shape, a 25/75 high/normal priority mix
// is pushed through the two-level queue (blocked behind enough load that
// ordering matters) and the per-class latency percentiles are reported —
// the win of priority scheduling is a lower high-class p95 at equal
// throughput.
//
// A loopback-socket axis prices the wire: the same request stream is pushed
// through net::SocketServer over 127.0.0.1 (framed protocol, CRC, epoll,
// pipelined client) and its req/s is compared against the in-process
// serve-8 mode — the gap is the full cost of the network front-end.
//
// A sharded-router axis prices the extra hop: the stream goes through a
// shard::Router fronting two in-process shard::Workers (one replica of the
// shape's model each, requests alternating between them), and its req/s is
// compared against the direct single-process socket — the gap is the
// router's frame relay + correlation remap.
//
//   bench_serve_throughput [--full] [--reps N] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "core/workload.hpp"
#include "runtime/timer.hpp"
#include "trace/table.hpp"

namespace {

using namespace turbofno;
using turbofno::bench::Options;

struct ShapeCase {
  std::string label;
  bool is_2d = false;
  core::Fno1dConfig c1;
  core::Fno2dConfig c2;
};

struct ModeResult {
  std::size_t max_batch = 0;  // 0 = direct serial
  double rps = 0.0;
  double avg_micro_batch = 1.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

/// One priority class's latency profile in the QoS mix run.
struct QosResult {
  serve::Priority priority = serve::Priority::Normal;
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

struct QosMix {
  double rps = 0.0;  // whole-mix throughput
  std::uint64_t promotions = 0;
  QosResult cls[2];  // [0] high, [1] normal
};

/// The same stream over a loopback TCP socket (framed wire protocol).
struct SocketResult {
  double rps = 0.0;
  double p50_ms = 0.0;       // server-side total (queue + exec), from the wire
  double p95_ms = 0.0;
  double avg_micro_batch = 1.0;
};

/// The same stream through the shard router fronting two workers.
struct ShardedResult {
  double rps = 0.0;
  double p50_ms = 0.0;       // server-side total at the owning worker
  double p95_ms = 0.0;
};

std::vector<ShapeCase> shapes(bool full) {
  std::vector<ShapeCase> out;
  {
    ShapeCase s;
    s.label = "1d n=64 K=8 m=16 L=1";
    s.c1 = {1, 8, 1, 64, 16, 1};
    out.push_back(s);
  }
  {
    ShapeCase s;
    s.label = "1d n=256 K=16 m=64 L=2";
    s.c1 = {1, 16, 1, 256, 64, 2};
    out.push_back(s);
  }
  {
    ShapeCase s;
    s.label = "2d 16x16 K=8 m=4x4 L=1";
    s.is_2d = true;
    s.c2 = {1, 8, 1, 16, 16, 4, 4, 1};
    out.push_back(s);
  }
  if (full) {
    ShapeCase s;
    s.label = "2d 64x64 K=16 m=16x16 L=2";
    s.is_2d = true;
    s.c2 = {1, 16, 1, 64, 64, 16, 16, 2};
    out.push_back(s);
  }
  return out;
}

std::vector<std::vector<c32>> make_requests(const ShapeCase& s, std::size_t count) {
  const std::size_t elems = s.is_2d ? s.c2.in_channels * s.c2.nx * s.c2.ny
                                    : s.c1.in_channels * s.c1.n;
  std::vector<std::vector<c32>> reqs(count);
  for (std::size_t i = 0; i < count; ++i) {
    reqs[i].resize(elems);
    core::fill_random(reqs[i], 0x5e21u + static_cast<unsigned>(i));
  }
  return reqs;
}

ModeResult run_serial(const ShapeCase& s, const std::vector<std::vector<c32>>& reqs,
                      std::size_t reps) {
  ModeResult r;
  std::unique_ptr<core::Fno1d> m1;
  std::unique_ptr<core::Fno2d> m2;
  std::size_t out_elems = 0;
  if (s.is_2d) {
    m2 = std::make_unique<core::Fno2d>(s.c2);
    out_elems = s.c2.out_channels * s.c2.nx * s.c2.ny;
  } else {
    m1 = std::make_unique<core::Fno1d>(s.c1);
    out_elems = s.c1.out_channels * s.c1.n;
  }
  std::vector<c32> out(out_elems);
  const double secs = runtime::time_best_of(reps, [&] {
    for (const auto& req : reqs) {
      if (s.is_2d) {
        m2->forward(req, out);
      } else {
        m1->forward(req, out);
      }
    }
  });
  r.rps = static_cast<double>(reqs.size()) / secs;
  return r;
}

ModeResult run_served(const ShapeCase& s, const std::vector<std::vector<c32>>& reqs,
                      std::size_t max_batch, std::size_t reps) {
  serve::InferenceServer::Options so;
  so.policy.max_batch = max_batch;
  so.policy.max_delay_s = 200e-6;
  so.policy.queue_capacity = reqs.size();
  so.workers = 1;
  serve::InferenceServer server(so);
  const serve::ModelId model = s.is_2d ? server.load_model(s.c2) : server.load_model(s.c1);

  std::vector<std::future<serve::InferResponse>> futs;
  std::vector<double> totals;
  const double secs = runtime::time_best_of(reps, [&] {
    futs.clear();
    futs.reserve(reqs.size());
    for (const auto& req : reqs) futs.push_back(server.submit(model, req));
    server.drain();
  });
  totals.reserve(futs.size());
  for (auto& f : futs) {
    auto resp = f.get();
    totals.push_back(resp.timing.total_s);
  }
  std::sort(totals.begin(), totals.end());

  ModeResult r;
  r.max_batch = max_batch;
  r.rps = static_cast<double>(reqs.size()) / secs;
  r.avg_micro_batch = server.stats().avg_micro_batch();
  if (!totals.empty()) {
    r.p50_ms = totals[totals.size() / 2] * 1e3;
    r.p95_ms = totals[(totals.size() * 95) / 100] * 1e3;
  }
  return r;
}

QosMix run_qos(const ShapeCase& s, const std::vector<std::vector<c32>>& reqs,
               std::size_t reps) {
  serve::InferenceServer::Options so;
  so.policy.max_batch = 8;
  so.policy.max_delay_s = 200e-6;
  so.policy.queue_capacity = reqs.size();
  // The whole stream is one saturated burst, so every queued request ages
  // past any realistic starvation bound before the backlog drains.  Park
  // the guard above the drain time so this axis measures pure two-level
  // priority; the guard's own behavior is covered by tests/serve_test.cpp.
  so.policy.starvation_s = 10.0;
  so.workers = 1;
  serve::InferenceServer server(so);
  const serve::ModelId model = s.is_2d ? server.load_model(s.c2) : server.load_model(s.c1);

  // 1 high for every 3 normal requests, interleaved.
  std::vector<std::future<serve::InferResponse>> futs;
  const double secs = runtime::time_best_of(reps, [&] {
    futs.clear();
    futs.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const serve::SubmitOptions opts{i % 4 == 0 ? serve::Priority::High
                                                 : serve::Priority::Normal};
      futs.push_back(server.submit(model, reqs[i], opts));
    }
    server.drain();
  });

  QosMix mix;
  mix.rps = static_cast<double>(reqs.size()) / secs;
  mix.promotions = server.stats().starvation_promotions;
  std::vector<double> totals[2];
  for (auto& f : futs) {
    const auto resp = f.get();
    totals[resp.priority == serve::Priority::High ? 0 : 1].push_back(resp.timing.total_s);
  }
  for (int c = 0; c < 2; ++c) {
    auto& t = totals[c];
    std::sort(t.begin(), t.end());
    mix.cls[c].priority = c == 0 ? serve::Priority::High : serve::Priority::Normal;
    mix.cls[c].requests = t.size();
    if (!t.empty()) {
      mix.cls[c].p50_ms = t[t.size() / 2] * 1e3;
      mix.cls[c].p95_ms = t[(t.size() * 95) / 100] * 1e3;
    }
  }
  return mix;
}

/// Pipelines the whole stream through `cli`, keeping a bounded window in
/// flight so the stream stays busy without tripping the server's
/// per-connection write backpressure; model_of(i) picks request i's model
/// id.  Appends each response's server-side total to `totals` and returns
/// the count of Ok responses.  Throws when the stream ends early or a
/// response is not Ok, so a req/s figure only ever counts Ok responses.
template <class ModelOf>
std::size_t stream_ok(net::Client& cli, const std::vector<std::vector<c32>>& reqs,
                      const std::vector<std::uint32_t>& dims, ModelOf model_of,
                      std::vector<double>& totals) {
  constexpr std::size_t kWindow = 16;
  totals.clear();
  std::size_t sent = 0;
  std::size_t ok = 0;
  net::Client::Result resp;
  while (ok < reqs.size()) {
    while (sent < reqs.size() && sent - ok < kWindow) {
      cli.send_request(model_of(sent), net::Dtype::C32, dims,
                       std::as_bytes(std::span<const c32>(reqs[sent])));
      ++sent;
    }
    if (!cli.recv_response(resp)) {
      throw std::runtime_error("stream ended after " + std::to_string(ok) + " of " +
                               std::to_string(reqs.size()) + " responses");
    }
    if (resp.head.status != net::WireStatus::Ok) {
      throw std::runtime_error("a response has status " +
                               std::string(net::wire_status_name(resp.head.status)) + " after " +
                               std::to_string(ok) + " Ok responses");
    }
    totals.push_back(resp.head.total_us * 1e-6);
    ++ok;
  }
  return ok;
}

SocketResult run_socket(const ShapeCase& s, const std::vector<std::vector<c32>>& reqs,
                        std::size_t reps) {
  net::SocketServer::Options so;
  so.port = 0;  // ephemeral: the bench must not collide with a real server
  so.serve.policy.max_batch = 8;
  so.serve.policy.max_delay_s = 200e-6;
  so.serve.policy.queue_capacity = reqs.size();
  so.serve.workers = 1;
  net::SocketServer srv(so);
  const serve::ModelId model = s.is_2d ? srv.load_model(s.c2) : srv.load_model(s.c1);
  srv.start();

  std::vector<std::uint32_t> dims;
  if (s.is_2d) {
    dims = {static_cast<std::uint32_t>(s.c2.in_channels), static_cast<std::uint32_t>(s.c2.nx),
            static_cast<std::uint32_t>(s.c2.ny)};
  } else {
    dims = {static_cast<std::uint32_t>(s.c1.in_channels), static_cast<std::uint32_t>(s.c1.n)};
  }

  net::Client cli;
  cli.connect(srv.bound_port());  // ephemeral bind: never collides across runs

  std::vector<double> totals;
  std::size_t ok = 0;
  const double secs = runtime::time_best_of(reps, [&] {
    ok = stream_ok(
        cli, reqs, dims, [&](std::size_t) { return static_cast<std::uint32_t>(model); }, totals);
  });

  SocketResult r;
  r.rps = static_cast<double>(ok) / secs;
  r.avg_micro_batch = srv.server()->stats().avg_micro_batch();
  std::sort(totals.begin(), totals.end());
  if (!totals.empty()) {
    r.p50_ms = totals[totals.size() / 2] * 1e3;
    r.p95_ms = totals[(totals.size() * 95) / 100] * 1e3;
  }
  cli.close();
  srv.stop();
  return r;
}

ShardedResult run_sharded(const ShapeCase& s, const std::vector<std::vector<c32>>& reqs,
                          std::size_t reps) {
  // Two replicas of the shape's model, one per worker; requests alternate
  // between global ids 0 and 1 so both shards (and the router's id remap
  // on both paths) stay on the measured path.
  shard::Topology topo;
  if (s.is_2d) {
    topo.add(s.c2, 0);
    topo.add(s.c2, 1);
  } else {
    topo.add(s.c1, 0);
    topo.add(s.c1, 1);
  }

  shard::Worker::Options wo;
  wo.serve.policy.max_batch = 8;
  wo.serve.policy.max_delay_s = 200e-6;
  wo.serve.policy.queue_capacity = reqs.size();
  wo.serve.workers = 1;
  shard::Worker w0(topo, 0, wo);
  shard::Worker w1(topo, 1, wo);
  w0.start();
  w1.start();

  shard::Router router(topo);
  router.set_worker_endpoint(0, w0.port());
  router.set_worker_endpoint(1, w1.port());
  router.start();

  std::vector<std::uint32_t> dims;
  if (s.is_2d) {
    dims = {static_cast<std::uint32_t>(s.c2.in_channels), static_cast<std::uint32_t>(s.c2.nx),
            static_cast<std::uint32_t>(s.c2.ny)};
  } else {
    dims = {static_cast<std::uint32_t>(s.c1.in_channels), static_cast<std::uint32_t>(s.c1.n)};
  }

  net::Client cli;
  cli.connect(router.bound_port());

  std::vector<double> totals;
  std::size_t ok = 0;
  const double secs = runtime::time_best_of(reps, [&] {
    ok = stream_ok(
        cli, reqs, dims, [](std::size_t i) { return static_cast<std::uint32_t>(i % 2); }, totals);
  });

  ShardedResult r;
  r.rps = static_cast<double>(ok) / secs;
  std::sort(totals.begin(), totals.end());
  if (!totals.empty()) {
    r.p50_ms = totals[totals.size() / 2] * 1e3;
    r.p95_ms = totals[(totals.size() * 95) / 100] * 1e3;
  }
  cli.close();
  router.stop();
  w0.stop();
  w1.stop();
  return r;
}

void write_json(const std::string& path, std::size_t requests,
                const std::vector<std::pair<ShapeCase, std::vector<ModeResult>>>& results,
                const std::vector<QosMix>& qos, const std::vector<SocketResult>& socket,
                const std::vector<ShardedResult>& sharded) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve_throughput: cannot open --json path '%s'\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"requests\": %zu,\n  \"shapes\": [\n", requests);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [shape, modes] = results[i];
    std::fprintf(f, "    {\"shape\": \"%s\", \"modes\": [\n", shape.label.c_str());
    const double serial_rps = modes.front().rps;
    const double one_at_a_time_rps = modes.size() > 1 ? modes[1].rps : serial_rps;
    for (std::size_t j = 0; j < modes.size(); ++j) {
      const auto& m = modes[j];
      std::fprintf(f,
                   "      {\"mode\": \"%s\", \"max_batch\": %zu, \"rps\": %.1f, "
                   "\"speedup_vs_serial\": %.3f, \"speedup_vs_serve1\": %.3f, "
                   "\"avg_micro_batch\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f}%s\n",
                   j == 0 ? "serial" : "serve", m.max_batch, m.rps, m.rps / serial_rps,
                   m.rps / one_at_a_time_rps, m.avg_micro_batch, m.p50_ms, m.p95_ms,
                   j + 1 < modes.size() ? "," : "");
    }
    const auto& q = qos[i];
    std::fprintf(f, "    ], \"qos_mix_25_75\": {\"rps\": %.1f, \"promotions\": %llu, "
                    "\"classes\": [\n",
                 q.rps, static_cast<unsigned long long>(q.promotions));
    for (int c = 0; c < 2; ++c) {
      std::fprintf(f,
                   "      {\"priority\": \"%s\", \"requests\": %zu, "
                   "\"p50_ms\": %.4f, \"p95_ms\": %.4f}%s\n",
                   serve::priority_name(q.cls[c].priority).data(), q.cls[c].requests,
                   q.cls[c].p50_ms, q.cls[c].p95_ms, c == 0 ? "," : "");
    }
    // serve-8 is modes[4]: serial + serve-{1,2,4,8,...}.
    const double serve8_rps = modes.size() > 4 ? modes[4].rps : modes.back().rps;
    const auto& sk = socket[i];
    std::fprintf(f,
                 "    ]},\n    \"socket_loopback\": {\"mode\": \"socket\", \"max_batch\": 8, "
                 "\"rps\": %.1f, \"relative_to_serve8\": %.3f, \"avg_micro_batch\": %.2f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f},\n",
                 sk.rps, sk.rps / serve8_rps, sk.avg_micro_batch, sk.p50_ms, sk.p95_ms);
    const auto& sh = sharded[i];
    std::fprintf(f,
                 "    \"sharded_router\": {\"mode\": \"sharded_router\", \"workers\": 2, "
                 "\"max_batch\": 8, \"rps\": %.1f, \"relative_to_socket\": %.3f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f}}%s\n",
                 sh.rps, sk.rps > 0.0 ? sh.rps / sk.rps : 0.0, sh.p50_ms, sh.p95_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);
  const std::size_t requests = opt.full ? 512 : 128;
  const std::vector<std::size_t> batches = {1, 2, 4, 8, 16};

  std::printf("== Serving throughput: micro-batched vs one-request-at-a-time ==\n");
  std::printf("(%zu requests per point, best of %zu passes, 1 executor worker)\n\n", requests,
              opt.reps);

  std::vector<std::pair<ShapeCase, std::vector<ModeResult>>> results;
  std::vector<QosMix> qos;
  std::vector<SocketResult> socket;
  std::vector<ShardedResult> sharded;
  for (const auto& s : shapes(opt.full)) {
    const auto reqs = make_requests(s, requests);
    std::vector<ModeResult> modes;
    modes.push_back(run_serial(s, reqs, opt.reps));
    for (const auto b : batches) modes.push_back(run_served(s, reqs, b, opt.reps));
    qos.push_back(run_qos(s, reqs, opt.reps));
    try {
      socket.push_back(run_socket(s, reqs, opt.reps));
      sharded.push_back(run_sharded(s, reqs, opt.reps));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_serve_throughput: %s: %s\n", s.label.c_str(), e.what());
      return 1;
    }

    trace::TextTable table({"mode", "req/s", "vs serial", "vs serve-1", "avg batch", "p50 ms",
                            "p95 ms"});
    const double serial_rps = modes[0].rps;
    const double serve1_rps = modes[1].rps;
    for (std::size_t j = 0; j < modes.size(); ++j) {
      const auto& m = modes[j];
      const std::string name = j == 0 ? "serial" : "serve-" + std::to_string(m.max_batch);
      table.add_row({name, trace::TextTable::fmt(m.rps, 0),
                     trace::TextTable::fmt(m.rps / serial_rps, 2),
                     trace::TextTable::fmt(m.rps / serve1_rps, 2),
                     j == 0 ? "-" : trace::TextTable::fmt(m.avg_micro_batch, 2),
                     j == 0 ? "-" : trace::TextTable::fmt(m.p50_ms, 3),
                     j == 0 ? "-" : trace::TextTable::fmt(m.p95_ms, 3)});
    }
    std::printf("%s\n%s\n", s.label.c_str(), table.str().c_str());
    const auto& q = qos.back();
    std::printf("  qos mix 25%% high / 75%% normal @ max_batch=8: %.0f req/s, "
                "high p95 %.3f ms vs normal p95 %.3f ms (%llu promotions)\n",
                q.rps, q.cls[0].p95_ms, q.cls[1].p95_ms,
                static_cast<unsigned long long>(q.promotions));
    const auto& sk = socket.back();
    const double serve8_rps = modes.size() > 4 ? modes[4].rps : modes.back().rps;
    std::printf("  loopback socket @ max_batch=8: %.0f req/s (%.2fx of in-process serve-8), "
                "server-side p95 %.3f ms, avg batch %.2f\n",
                sk.rps, sk.rps / serve8_rps, sk.p95_ms, sk.avg_micro_batch);
    const auto& sh = sharded.back();
    std::printf("  sharded router, 2 workers @ max_batch=8: %.0f req/s (%.2fx of direct "
                "socket), server-side p95 %.3f ms\n\n",
                sh.rps, sk.rps > 0.0 ? sh.rps / sk.rps : 0.0, sh.p95_ms);
    results.emplace_back(s, std::move(modes));
  }

  write_json(opt.json, requests, results, qos, socket, sharded);
  return 0;
}
