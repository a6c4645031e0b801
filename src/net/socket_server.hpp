// Socket serving front-end: an epoll-based, thread-pooled TCP server that
// speaks the TurboFNO wire protocol (net/protocol.hpp) and feeds the
// in-process serve::InferenceServer.
//
// Architecture:
//
//   accept ──> io thread (epoll, round-robin conns) ──> frame decode
//                     ▲                                     │ zero-copy spans
//                     │ write queue + backpressure          ▼
//   client <── sealed response frames <── completion <── InferenceServer
//                                         callbacks        (QoS batching)
//
// Each connection is owned by exactly one io thread (no cross-thread
// connection state races); inference completions arrive on the serve
// executor threads and are handed to the owning io thread through a
// per-thread wake queue (eventfd).  A decoded request's payload is
// submitted as a zero-copy span over the connection's receive buffer, and
// the session writes the result directly into the outgoing response
// frame's payload bytes — the front-end itself copies no payload.
//
// Admission control and backpressure:
//   - A request frame carrying a deadline rides serve's QoS-class
//     admission: if the deadline is infeasible against the model's backlog
//     it is refused with WireStatus::Shed (Normal-QoS requests judge the
//     whole backlog, High only the High backlog — under saturation Normal
//     sheds first).  serve::ServerStats counts the sheds.
//   - A connection whose outbound queue exceeds Options::
//     max_buffered_bytes stops being read (EPOLLIN parked) until the
//     client drains it below half — per-connection write backpressure, so
//     one slow reader cannot balloon server memory or stall others.
//
// Malformed input never crashes the server: recoverable body errors
// (unknown model, shape/payload disagreement, bad prefix) get a typed
// error response on the still-framed stream; integrity errors (bad magic,
// wrong version, checksum mismatch, over-limit length) get the typed error
// response followed by a clean close.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/thread_annotations.hpp"

#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace turbofno::net {

class SocketServer {
 public:
  struct Options {
    /// Listening port.  -1 resolves TURBOFNO_NET_PORT (default 7470);
    /// 0 binds an ephemeral port (read it back with port()).
    int port = -1;
    /// Epoll io threads; connections are assigned round-robin.
    std::size_t io_threads = 1;
    /// Largest accepted frame body; 0 resolves TURBOFNO_NET_MAX_FRAME.
    std::size_t max_frame_bytes = 0;
    /// Outbound bytes buffered per connection before its reads are parked.
    std::size_t max_buffered_bytes = 4u << 20;
    /// SO_SNDBUF for accepted sockets (0 = OS default).  Bounds how much a
    /// slow reader's data the *kernel* buffers per connection; combined
    /// with max_buffered_bytes it caps total per-connection memory.
    int socket_sndbuf_bytes = 0;
    /// listen(2) backlog.
    int backlog = 64;
    /// stop() flushes pending responses to slow readers at most this long.
    double stop_flush_s = 5.0;
    /// The embedded inference server's options (ignored when an external
    /// server is shared via the two-argument constructor).
    serve::InferenceServer::Options serve;
  };

  /// Monotonic front-end tallies (protocol-level; inference-level tallies
  /// live in serve::ServerStats, shed counters included).
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t frames_decoded = 0;      // well-formed requests submitted
    std::uint64_t responses_sent = 0;      // frames fully written back
    std::uint64_t protocol_errors = 0;     // typed error responses queued
    std::uint64_t backpressure_pauses = 0;  // times a connection's reads parked
    std::uint64_t dropped_responses = 0;   // completions after client disconnect
    std::uint64_t control_frames = 0;      // Hello/Heartbeat frames answered
  };

  SocketServer() : SocketServer(Options{}) {}
  explicit SocketServer(Options opts);
  /// Serve an existing inference server (shared with in-process callers).
  SocketServer(Options opts, std::shared_ptr<serve::InferenceServer> server);
  /// stop()s if still running.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Model registration, forwarded to the inference server.  The returned
  /// ids are what request frames carry in their `model` field.
  serve::ModelId load_model(const core::ModelConfig& cfg) { return server_->load_model(cfg); }
  serve::ModelId load_model(const core::ModelConfig& cfg, const core::WeightBundle& w) {
    return server_->load_model(cfg, w);
  }

  /// The inference server this front-end feeds.
  [[nodiscard]] const std::shared_ptr<serve::InferenceServer>& server() const noexcept {
    return server_;
  }

  /// Binds, listens, and spawns the io threads.  Throws std::system_error
  /// when the socket cannot be set up (port in use, ...).
  void start() TFNO_EXCLUDES(lifecycle_mu_);

  /// Stops accepting, quiesces reads, drains in-flight inference, flushes
  /// queued responses (bounded by Options::stop_flush_s), closes every
  /// connection, and joins the io threads.  Idempotent and safe to call
  /// concurrently from several threads (one wins; the rest block until
  /// the wind-down finishes, then return).
  void stop() TFNO_EXCLUDES(lifecycle_mu_);

  /// The bound listening port (after start(); ephemeral ports resolved).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return bound_port_.load(std::memory_order_acquire);
  }

  /// Alias for port(): the OS-assigned port after binding port 0.  Benches
  /// and tests use this so parallel runs never collide on a fixed port.
  [[nodiscard]] std::uint16_t bound_port() const noexcept { return port(); }

  /// Lock-free and callable from any thread (including concurrently with
  /// start()/stop(), which it observes atomically).
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const;

 private:
  struct Connection;
  struct IoThread;
  struct Inflight;

  void io_loop(IoThread& t);
  void drain_wake_queue(IoThread& t);
  void accept_ready();
  void handle_read(IoThread& t, const std::shared_ptr<Connection>& c);
  void process_frame(IoThread& t, const std::shared_ptr<Connection>& c);
  void submit_request(const std::shared_ptr<Connection>& c, std::shared_ptr<Inflight> inf,
                      const std::byte* in_bytes);
  void on_inference_done(const std::shared_ptr<Connection>& c, const std::shared_ptr<Inflight>& f,
                         serve::InferResponse&& r);
  void flush(IoThread& t, const std::shared_ptr<Connection>& c);
  void close_conn(IoThread& t, const std::shared_ptr<Connection>& c);
  void update_interest(IoThread& t, const std::shared_ptr<Connection>& c);

  Options opts_;
  std::shared_ptr<serve::InferenceServer> server_;
  std::size_t max_frame_ = 0;

  // Atomic: io thread 0 reads it (accept path) while stop() retires it.
  // stop() shuts the socket down but defers the close until the io
  // threads have joined, so the fd number can never be recycled under a
  // concurrent accept4.
  std::atomic<int> listen_fd_{-1};
  std::atomic<std::uint16_t> bound_port_{0};
  // Serializes start()/stop() against each other (stop() is idempotent
  // and may race the destructor or an ops thread).
  mutable runtime::Mutex lifecycle_mu_;
  bool started_ TFNO_GUARDED_BY(lifecycle_mu_) = false;
  std::atomic<bool> running_{false};     // lock-free running() snapshot
  std::atomic<bool> reads_off_{false};   // quiesce: stop consuming frames
  std::atomic<std::size_t> reads_acked_{0};  // io threads that parked their reads
  std::atomic<bool> flush_exit_{false};  // io threads exit once flushed
  std::atomic<std::size_t> next_io_{0};  // round-robin connection placement

  std::vector<std::unique_ptr<IoThread>> io_;

  mutable runtime::Mutex stats_mu_;
  Stats stats_ TFNO_GUARDED_BY(stats_mu_);
};

}  // namespace turbofno::net
