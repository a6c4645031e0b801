#include "net/socket_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/framed_conn.hpp"

namespace turbofno::net {

namespace {

// epoll_event.data.u64 sentinels for the two non-connection fds; every
// other event carries a Connection* in data.ptr.
constexpr std::uint64_t kEventFdTag = 0;
constexpr std::uint64_t kListenFdTag = 1;

[[nodiscard]] WireStatus wire_status(serve::Status s) noexcept {
  switch (s) {
    case serve::Status::Ok:
      return WireStatus::Ok;
    case serve::Status::Rejected:
      return WireStatus::Rejected;
    case serve::Status::ShutDown:
      return WireStatus::ShutDown;
    case serve::Status::InvalidInput:
      return WireStatus::InvalidInput;
    case serve::Status::Shed:
      return WireStatus::Shed;
  }
  return WireStatus::InvalidInput;
}

[[nodiscard]] std::uint32_t saturate_us(double seconds) noexcept {
  const double us = seconds * 1e6;
  if (us <= 0.0) return 0;
  if (us >= 4294967295.0) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(us);
}

}  // namespace

/// Everything a single in-flight request owns: the received request frame
/// (the submitted input span views its payload bytes) and the response
/// frame the session writes its output payload into.  Held alive by the
/// completion callback, so a mid-request client disconnect never leaves
/// the inference server writing into freed memory.
struct SocketServer::Inflight {
  std::vector<std::byte> request;  // header headroom + body
  std::vector<std::byte> frame;    // header + prefix + payload area
  std::size_t payload_bytes = 0;
  RequestHead head;
};

struct SocketServer::Connection {
  Connection(int fd, std::size_t max_frame, std::size_t max_buffered)
      : conn(fd, max_frame, max_buffered) {
    const runtime::MutexLock lock(ready_mu);
    ready.reserve(16);
  }

  FramedConn conn;  // io-thread-owned: reader, writer, close-after-flush
  std::size_t io_index = 0;

  // ---- cross-thread state
  std::atomic<bool> dead{false};
  runtime::Mutex ready_mu;  // serve-callback handoff
  // Sealed frames awaiting the io thread.  Reserved here and drained in
  // place, so a completion allocates nothing on the serve thread: a chunk
  // it allocated and the io thread freed would linger in the io thread's
  // cache, pinning the serve thread's heap above its scratch arena.
  std::vector<std::vector<std::byte>> ready TFNO_GUARDED_BY(ready_mu);
};

struct SocketServer::IoThread {
  int ep = -1;
  int event_fd = -1;
  std::thread thread;
  bool reads_acked = false;  // io-thread-private: this thread parked its reads

  runtime::Mutex mu;  // producers: acceptor, serve callbacks
  std::vector<std::shared_ptr<Connection>> pending
      TFNO_GUARDED_BY(mu);  // accepted, not yet registered
  std::vector<std::shared_ptr<Connection>> woken
      TFNO_GUARDED_BY(mu);  // have fresh `ready` frames
  // io-thread-private swap partner of `woken`: the two trade storage, so
  // a completion does not allocate (see Connection::ready).
  std::vector<std::shared_ptr<Connection>> woken_batch;

  // io-thread-private registry of live connections (keeps them alive).
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  // Connections closed mid-batch, kept alive until the batch ends so a
  // stale epoll data.ptr later in the same batch stays dereferenceable
  // (its dead flag and the registry identity check reject it safely).
  std::vector<std::shared_ptr<Connection>> dying;
};

SocketServer::SocketServer(Options opts)
    : SocketServer(std::move(opts), nullptr) {}

SocketServer::SocketServer(Options opts, std::shared_ptr<serve::InferenceServer> server)
    : opts_(std::move(opts)),
      server_(server ? std::move(server)
                     : std::make_shared<serve::InferenceServer>(opts_.serve)) {
  max_frame_ = opts_.max_frame_bytes != 0 ? opts_.max_frame_bytes : default_max_frame_bytes();
  opts_.io_threads = std::max<std::size_t>(opts_.io_threads, 1);
  opts_.max_buffered_bytes = std::max<std::size_t>(opts_.max_buffered_bytes, kHeaderBytes);
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  const runtime::MutexLock lock(lifecycle_mu_);
  if (started_) throw std::logic_error("SocketServer::start called twice");

  std::uint16_t bound = 0;
  const int lfd = listen_tcp(opts_.port >= 0 ? opts_.port : default_port(), opts_.backlog, bound);
  bound_port_.store(bound, std::memory_order_release);

  io_.clear();
  for (std::size_t i = 0; i < opts_.io_threads; ++i) {
    auto t = std::make_unique<IoThread>();
    {
      // Completions then wake this thread without allocating (see
      // Connection::ready).
      const runtime::MutexLock lock(t->mu);
      t->woken.reserve(64);
    }
    t->woken_batch.reserve(64);
    open_epoll(t->ep, t->event_fd, epoll_data_t{.u64 = kEventFdTag});
    io_.push_back(std::move(t));
  }
  // The listen socket lives on io thread 0; accepted connections are dealt
  // round-robin across all io threads.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenFdTag;
    ::epoll_ctl(io_[0]->ep, EPOLL_CTL_ADD, lfd, &ev);
  }
  reads_off_ = false;
  reads_acked_ = 0;
  flush_exit_ = false;
  listen_fd_.store(lfd, std::memory_order_release);
  for (auto& t : io_) {
    IoThread* tp = t.get();
    t->thread = std::thread([this, tp] { io_loop(*tp); });
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
}

void SocketServer::stop() {
  const runtime::MutexLock lock(lifecycle_mu_);
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);

  // 1. Stop intake: no new connections, no new frames.  Existing
  //    connections stay registered so queued responses still flush.  The
  //    listen fd is retired atomically and only shut down here; the close
  //    waits until the io threads have joined, so a concurrent accept4 on
  //    io thread 0 can never run on a closed (or recycled) descriptor.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::epoll_ctl(io_[0]->ep, EPOLL_CTL_DEL, lfd, nullptr);
    ::shutdown(lfd, SHUT_RDWR);
  }
  reads_off_ = true;
  for (auto& t : io_) wake(t->event_fd);
  // Wait until every io thread has parked its reads: a frame decoded
  // before that point has also been submitted, so drain() covers it.
  for (std::size_t n = reads_acked_.load(); n < io_.size(); n = reads_acked_.load()) {
    reads_acked_.wait(n);
  }

  // 2. Complete every request already accepted; their response frames are
  //    enqueued by the completion callbacks and written by the (still
  //    running) io threads.
  server_->drain();

  // 3. Tell the io threads to exit once their wake queues and write queues
  //    are empty (or the flush deadline passes — a client that never reads
  //    cannot hold shutdown hostage); each closes its connections on the
  //    way out.  Then join and tear down.
  flush_exit_ = true;
  for (auto& t : io_) wake(t->event_fd);
  for (auto& t : io_) {
    if (t->thread.joinable()) t->thread.join();
  }
  for (auto& t : io_) {
    ::close(t->ep);
    ::close(t->event_fd);
  }
  io_.clear();
  if (lfd >= 0) ::close(lfd);  // deferred: the io threads are gone now
}

SocketServer::Stats SocketServer::stats() const {
  const runtime::MutexLock lock(stats_mu_);
  return stats_;
}

void SocketServer::update_interest(IoThread& t, const std::shared_ptr<Connection>& c) {
  if (c->dead) return;
  c->conn.watch(t.ep, EPOLL_CTL_MOD, epoll_data_t{.ptr = c.get()},
                c->conn.events(!reads_off_) | EPOLLRDHUP);
}

void SocketServer::accept_ready() {
  while (true) {
    // Snapshot the fd: stop() retires listen_fd_ concurrently (it defers
    // the close until this thread has joined, so the snapshot stays valid;
    // shutdown() makes the accept below fail fast instead of blocking).
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;
    const int fd = accept_tcp(lfd);
    if (fd < 0) return;  // EAGAIN, or the listen fd is gone (shutdown race)
    if (opts_.socket_sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.socket_sndbuf_bytes,
                   sizeof opts_.socket_sndbuf_bytes);
    }
    auto c = std::make_shared<Connection>(fd, max_frame_, opts_.max_buffered_bytes);
    c->io_index = next_io_.fetch_add(1) % io_.size();
    {
      const runtime::MutexLock lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    IoThread& owner = *io_[c->io_index];
    {
      const runtime::MutexLock lock(owner.mu);
      owner.pending.push_back(std::move(c));
    }
    wake(owner.event_fd);
  }
}

void SocketServer::close_conn(IoThread& t, const std::shared_ptr<Connection>& c) {
  if (c->dead.exchange(true)) return;
  ::epoll_ctl(t.ep, EPOLL_CTL_DEL, c->conn.fd, nullptr);
  close_drained(c->conn.fd);
  t.conns.erase(c->conn.fd);
  t.dying.push_back(c);
  const runtime::MutexLock lock(stats_mu_);
  ++stats_.connections_closed;
}

void SocketServer::flush(IoThread& t, const std::shared_ptr<Connection>& c) {
  const FrameWriter::Sent s = c->conn.out.flush(c->conn.fd);
  if (s.frames != 0 || s.paused) {
    const runtime::MutexLock lock(stats_mu_);
    stats_.responses_sent += s.frames;
    if (s.paused) ++stats_.backpressure_pauses;
  }
  if (s.error || (c->conn.want_close && c->conn.out.empty())) {
    close_conn(t, c);
    return;
  }
  update_interest(t, c);
}

void SocketServer::handle_read(IoThread& t, const std::shared_ptr<Connection>& c) {
  while (!c->dead && c->conn.reading() && !reads_off_) {
    const FrameReader::Result r = c->conn.in.read(c->conn.fd);
    if (r == FrameReader::Result::WouldBlock) return;
    if (r == FrameReader::Result::Closed) {
      close_conn(t, c);  // peer closed (possibly mid-request: clean teardown)
      return;
    }
    process_frame(t, c);
  }
}

void SocketServer::process_frame(IoThread& t, const std::shared_ptr<Connection>& c) {
  FrontFrame f = answer_front_frame(c->conn.in, server_->model_count());
  if (!f.reply.empty()) {
    {
      const runtime::MutexLock lock(stats_mu_);
      ++(f.control ? stats_.control_frames : stats_.protocol_errors);
    }
    c->conn.want_close = f.close;
    c->conn.out.push(std::move(f.reply));
    flush(t, c);
    return;
  }
  auto inf = std::make_shared<Inflight>();
  inf->head = f.head;
  inf->payload_bytes = server_->output_elems(f.head.model) * dtype_bytes(f.head.dtype);
  inf->request = c->conn.in.take();  // f.payload still views it
  inf->frame.resize(encoded_response_bytes(inf->payload_bytes));
  submit_request(c, std::move(inf), f.payload.data());
  const runtime::MutexLock lock(stats_mu_);
  ++stats_.frames_decoded;
}

void SocketServer::submit_request(const std::shared_ptr<Connection>& c,
                                  std::shared_ptr<Inflight> inf, const std::byte* in_bytes) {
  serve::SubmitOptions so;
  so.priority = inf->head.qos == Qos::High ? serve::Priority::High : serve::Priority::Normal;
  so.deadline_s = static_cast<double>(inf->head.deadline_us) * 1e-6;

  // Zero-copy hand-off: the input span views the request payload inside
  // the received frame; the output span views the response frame's payload
  // area, so a single-request micro-batch writes its result straight into
  // the bytes that go out on the wire.  Both prefixes keep the payloads
  // 4-byte aligned (see protocol.hpp), which satisfies f32/c32 alignment.
  std::byte* const out_bytes = inf->frame.data() + kHeaderBytes + kResponsePrefixBytes;
  const auto elems = static_cast<std::size_t>(inf->head.elems());
  const auto model = static_cast<serve::ModelId>(inf->head.model);
  const Dtype dtype = inf->head.dtype;
  auto on_done = [this, c, inf](serve::InferResponse&& r) {
    on_inference_done(c, inf, std::move(r));
  };
  if (dtype == Dtype::C32) {
    server_->submit(model,
                    std::span<const c32>(reinterpret_cast<const c32*>(in_bytes), elems),
                    std::span<c32>(reinterpret_cast<c32*>(out_bytes),
                                   inf->payload_bytes / sizeof(c32)),
                    std::move(on_done), so);
  } else {
    server_->submit_real(model,
                         std::span<const float>(reinterpret_cast<const float*>(in_bytes), elems),
                         std::span<float>(reinterpret_cast<float*>(out_bytes),
                                          inf->payload_bytes / sizeof(float)),
                         std::move(on_done), so);
  }
}

void SocketServer::on_inference_done(const std::shared_ptr<Connection>& c,
                                     const std::shared_ptr<Inflight>& f,
                                     serve::InferResponse&& r) {
  ResponseHead rh;
  rh.correlation = f->head.correlation;
  rh.status = wire_status(r.status);
  rh.dtype = f->head.dtype;
  rh.queue_us = saturate_us(r.timing.queue_s);
  rh.exec_us = saturate_us(r.timing.exec_s);
  rh.total_us = saturate_us(r.timing.total_s);
  rh.micro_batch = static_cast<std::uint32_t>(r.timing.micro_batch);
  const std::size_t payload = rh.status == WireStatus::Ok ? f->payload_bytes : 0;
  encode_response_prefix(f->frame, rh, payload);
  seal_response(f->frame);

  if (c->dead) {
    const runtime::MutexLock lock(stats_mu_);
    ++stats_.dropped_responses;
    return;
  }
  IoThread& owner = *io_[c->io_index];
  {
    const runtime::MutexLock lock(c->ready_mu);
    c->ready.push_back(std::move(f->frame));
  }
  {
    const runtime::MutexLock lock(owner.mu);
    owner.woken.push_back(c);
  }
  wake(owner.event_fd);
}

void SocketServer::drain_wake_queue(IoThread& t) {
  std::vector<std::shared_ptr<Connection>> pending;
  {
    const runtime::MutexLock lock(t.mu);
    pending.swap(t.pending);
    t.woken_batch.swap(t.woken);
  }
  for (auto& c : pending) {
    t.conns.emplace(c->conn.fd, c);
    c->conn.watch(t.ep, EPOLL_CTL_ADD, epoll_data_t{.ptr = c.get()},
                  (reads_off_ ? 0u : EPOLLIN) | EPOLLRDHUP);
  }
  for (auto& c : t.woken_batch) {
    if (c->dead) continue;
    {
      const runtime::MutexLock lock(c->ready_mu);
      for (auto& frame : c->ready) c->conn.out.push(std::move(frame));
      c->ready.clear();
    }
    flush(t, c);
  }
  t.woken_batch.clear();
}

void SocketServer::io_loop(IoThread& t) {
  std::array<epoll_event, 64> evs;
  std::chrono::steady_clock::time_point flush_deadline{};
  bool flushing = false;

  while (true) {
    const int timeout_ms = flushing ? 10 : -1;
    const int n = ::epoll_wait(t.ep, evs.data(), static_cast<int>(evs.size()), timeout_ms);

    // Collect closes to the end of the batch: a connection freed by an
    // earlier event in this batch must not be touched through a stale
    // data.ptr of a later one (shared_ptrs in t.conns keep them alive
    // until the erase, and the dead flag guards the stale handling).
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = evs[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kEventFdTag) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto got = ::read(t.event_fd, &drain, sizeof drain);
        drain_wake_queue(t);
        continue;
      }
      if (ev.data.u64 == kListenFdTag) {
        accept_ready();
        continue;
      }
      auto* cp = static_cast<Connection*>(ev.data.ptr);
      const auto it = t.conns.find(cp->conn.fd);
      if (it == t.conns.end() || it->second.get() != cp || cp->dead) continue;
      const std::shared_ptr<Connection> c = it->second;
      // On HUP, flush what we can (half-close peers still read); the
      // read/write paths observe the real state.
      if ((ev.events & EPOLLERR) != 0) {
        close_conn(t, c);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) flush(t, c);
      if (c->dead) continue;
      if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) handle_read(t, c);
    }
    t.dying.clear();

    if (reads_off_ && !t.reads_acked) {
      // Quiesce: stop consuming frames on every connection, then tell
      // stop() that no frame of this thread is still short of submit.
      for (auto& [fd, c] : t.conns) update_interest(t, c);
      t.reads_acked = true;
      reads_acked_.fetch_add(1);
      reads_acked_.notify_all();
    }
    if (flush_exit_) {
      if (!flushing) {
        flushing = true;
        flush_deadline = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(opts_.stop_flush_s));
      }
      // Completions can still sit in the wake queue or a ready list (the
      // eventfd edge may come after this check): hand them to the writers
      // before judging the queues empty.
      drain_wake_queue(t);
      bool empty = true;
      for (auto& [fd, c] : t.conns) empty = empty && c->conn.out.empty();
      if (empty || std::chrono::steady_clock::now() >= flush_deadline) break;
    }
  }
  // Close what is left on the owning thread, so each connection's buffers
  // go back to the allocator arena they came from.
  while (!t.conns.empty()) {
    const std::shared_ptr<Connection> c = t.conns.begin()->second;
    close_conn(t, c);
  }
  t.dying.clear();
}

}  // namespace turbofno::net
