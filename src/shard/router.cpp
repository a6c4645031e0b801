#include "shard/router.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/framed_conn.hpp"
#include "runtime/timer.hpp"

namespace turbofno::shard {

namespace {

// epoll data.fd of the wake eventfd (no real descriptor is negative).
constexpr int kWakeFd = -1;

[[nodiscard]] epoll_data_t fd_data(int fd) noexcept {
  epoll_data_t d{};
  d.fd = fd;
  return d;
}

}  // namespace

// A client connection.  Its reader reassembles frames with kHeaderBytes
// of headroom, so a forwarded request is the reader's buffer itself —
// rewrite two body fields, reseal, write the header in place, move the
// vector to the worker link.  The payload is never copied in the router.
// A closed client keeps fd == -1 (responses for it are dropped).
struct Router::ClientConn : net::FramedConn {
  using net::FramedConn::FramedConn;
};

struct Router::WorkerLink {
  std::size_t index = 0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool have_endpoint = false;

  enum class State { Down, Connecting, Handshaking, Up };
  State state = State::Down;
  net::FramedConn conn;  // same headroom relay as ClientConn; fd -1 while Down

  /// A forwarded request waiting for its worker response.
  struct Pending {
    std::shared_ptr<ClientConn> client;
    std::uint64_t client_corr = 0;
    net::Dtype dtype = net::Dtype::C32;
  };
  std::unordered_map<std::uint64_t, Pending> outstanding;

  /// A decoded-but-not-yet-forwarded request (worker down or window full).
  struct Parked {
    std::vector<std::byte> frame;  // full frame, model field already local
    std::shared_ptr<ClientConn> client;
    std::uint64_t client_corr = 0;
    net::Dtype dtype = net::Dtype::C32;
  };
  std::deque<Parked> gap;

  // Redial / liveness bookkeeping (seconds on the router clock).
  double next_dial_s = 0.0;
  double backoff_s = 0.0;
  double dial_start_s = 0.0;
  double last_ack_s = 0.0;
  double next_hb_s = 0.0;
};

struct Router::Impl {
  explicit Impl(Router* router) : r(router) {}

  Router* r;
  runtime::Timer clock;

  int ep = -1;
  int event_fd = -1;
  int listen_fd = -1;

  // Resolved options.
  std::size_t max_frame = 0;
  std::size_t window = 0;
  std::size_t gap_cap = 0;
  double hb_s = 0.0;
  double redial_min = 0.0;
  double redial_max = 0.0;

  std::uint64_t next_corr = 1;
  std::unordered_map<int, std::shared_ptr<ClientConn>> clients;
  std::vector<std::unique_ptr<WorkerLink>> links;
  std::unordered_map<int, WorkerLink*> link_by_fd;

  bool stopping = false;
  double stop_deadline_s = 0.0;

  // Cross-thread command queue (public API -> io thread).
  struct Endpoint {
    std::size_t index = 0;
    std::string host;
    std::uint16_t port = 0;
  };
  runtime::Mutex cmd_mu;
  std::vector<Endpoint> pending_endpoints TFNO_GUARDED_BY(cmd_mu);
  bool stop_requested TFNO_GUARDED_BY(cmd_mu) = false;

  // ---- helpers ----------------------------------------------------------
  void bump(std::uint64_t Stats::* f, std::uint64_t n = 1) {
    const runtime::MutexLock lock(r->stats_mu_);
    r->stats_.*f += n;
  }

  // Client side.
  void accept_clients();
  void send_client(const std::shared_ptr<ClientConn>& c, std::vector<std::byte>&& frame);
  void flush_client(const std::shared_ptr<ClientConn>& c);
  void handle_client_read(const std::shared_ptr<ClientConn>& c);
  void process_client_frame(const std::shared_ptr<ClientConn>& c);
  void close_client(const std::shared_ptr<ClientConn>& c);

  // Worker side.
  void send_link(WorkerLink& w, std::vector<std::byte>&& frame);
  void flush_link(WorkerLink& w);
  void schedule_redial(WorkerLink& w);
  void dial(WorkerLink& w);
  void start_handshake(WorkerLink& w);
  void go_up(WorkerLink& w);
  void fail_link(WorkerLink& w, net::WireStatus shed_status = net::WireStatus::Shed);
  void handle_link_event(WorkerLink& w, std::uint32_t events);
  void handle_link_read(WorkerLink& w);
  void process_link_frame(WorkerLink& w);
  void dispatch_or_park(WorkerLink& w, WorkerLink::Parked&& p);
  void send_to_worker(WorkerLink& w, WorkerLink::Parked&& p);
  void flush_gap(WorkerLink& w);

  // Timers / commands / shutdown.
  void process_commands();
  void process_timers(double now);
  [[nodiscard]] double next_deadline(double now) const;
  void begin_stop();
  [[nodiscard]] bool stop_complete() const;
  void final_cleanup();
};

// --------------------------------------------------------------- client side

void Router::Impl::accept_clients() {
  while (true) {
    const int fd = net::accept_tcp(listen_fd);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try next wake
    auto c = std::make_shared<ClientConn>(fd, max_frame, r->opts_.max_buffered_bytes);
    if (!c->watch(ep, EPOLL_CTL_ADD, fd_data(fd), EPOLLIN)) {
      ::close(fd);
      continue;
    }
    clients.emplace(fd, std::move(c));
    bump(&Stats::clients_accepted);
  }
}

void Router::Impl::close_client(const std::shared_ptr<ClientConn>& c) {
  if (c->fd < 0) return;
  ::epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
  net::close_drained(c->fd);
  clients.erase(c->fd);
  c->fd = -1;
  bump(&Stats::clients_closed);
}

void Router::Impl::flush_client(const std::shared_ptr<ClientConn>& c) {
  if (c->out.flush(c->fd).error || (c->want_close && c->out.empty())) {
    close_client(c);
    return;
  }
  c->watch(ep, EPOLL_CTL_MOD, fd_data(c->fd), c->events(!stopping));
}

void Router::Impl::send_client(const std::shared_ptr<ClientConn>& c,
                               std::vector<std::byte>&& frame) {
  if (c->fd < 0) {
    bump(&Stats::dropped_responses);
    return;
  }
  c->out.push(std::move(frame));
  flush_client(c);
}

void Router::Impl::handle_client_read(const std::shared_ptr<ClientConn>& c) {
  while (c->fd >= 0 && c->reading() && !stopping) {
    const net::FrameReader::Result res = c->in.read(c->fd);
    if (res == net::FrameReader::Result::WouldBlock) return;
    if (res == net::FrameReader::Result::Closed) {
      close_client(c);
      return;
    }
    process_client_frame(c);
  }
}

void Router::Impl::process_client_frame(const std::shared_ptr<ClientConn>& c) {
  // The router answers control traffic and malformed frames itself,
  // exactly like a single-process server (worker liveness is its own
  // business, over the links).
  net::FrontFrame f = net::answer_front_frame(c->in, r->topo_.model_count());
  if (!f.reply.empty()) {
    if (!f.control) bump(&Stats::protocol_errors);
    c->want_close = f.close;
    send_client(c, std::move(f.reply));
    return;
  }
  const Route route = r->topo_.route(f.head.model);
  WorkerLink::Parked p;
  p.frame = c->in.take();
  // Rewrite the model field to the worker-local id now; the correlation is
  // assigned (and the CRC resealed) at forward time, which may be after a
  // stay in the gap queue.
  net::store_u32le(p.frame.data() + net::kHeaderBytes + 8, route.local);
  p.client = c;
  p.client_corr = f.head.correlation;
  p.dtype = f.head.dtype;
  dispatch_or_park(*links[route.worker], std::move(p));
}

// --------------------------------------------------------------- worker side

void Router::Impl::send_link(WorkerLink& w, std::vector<std::byte>&& frame) {
  w.conn.out.push(std::move(frame));
  flush_link(w);
}

void Router::Impl::flush_link(WorkerLink& w) {
  if (w.conn.out.flush(w.conn.fd).error) {
    fail_link(w);
    return;
  }
  const bool connecting = w.state == WorkerLink::State::Connecting;
  w.conn.watch(ep, EPOLL_CTL_MOD, fd_data(w.conn.fd),
               w.conn.events(true) | (connecting ? EPOLLOUT : 0u));
}

void Router::Impl::schedule_redial(WorkerLink& w) {
  w.next_dial_s = clock.seconds() + w.backoff_s;
  w.backoff_s = std::min(std::max(w.backoff_s, redial_min) * 2.0, redial_max);
}

void Router::Impl::dial(WorkerLink& w) {
  bool connected = false;
  const int fd = net::dial_tcp(w.host, w.port, connected);
  if (fd < 0) {
    if (errno == EINVAL) {
      w.have_endpoint = false;  // unroutable host: wait for a new endpoint
    } else {
      schedule_redial(w);
    }
    return;
  }
  w.conn.reset(fd);
  if (!w.conn.watch(ep, EPOLL_CTL_ADD, fd_data(fd), EPOLLIN | EPOLLOUT)) {
    ::close(fd);
    w.conn.reset(-1);
    schedule_redial(w);
    return;
  }
  w.state = WorkerLink::State::Connecting;
  w.dial_start_s = clock.seconds();
  link_by_fd[fd] = &w;
  if (connected) start_handshake(w);
}

void Router::Impl::start_handshake(WorkerLink& w) {
  w.state = WorkerLink::State::Handshaking;
  w.dial_start_s = clock.seconds();
  send_link(w, net::control_frame(net::ControlKind::Hello, r->topo_.owned_count(w.index)));
}

void Router::Impl::go_up(WorkerLink& w) {
  w.state = WorkerLink::State::Up;
  w.backoff_s = redial_min;
  const double now = clock.seconds();
  w.last_ack_s = now;
  w.next_hb_s = now + hb_s;
  bump(&Stats::worker_connects);
  flush_gap(w);
}

void Router::Impl::fail_link(WorkerLink& w, net::WireStatus shed_status) {
  if (w.conn.fd >= 0) {
    link_by_fd.erase(w.conn.fd);
    ::epoll_ctl(ep, EPOLL_CTL_DEL, w.conn.fd, nullptr);
    net::close_drained(w.conn.fd);
    bump(&Stats::worker_disconnects);
  }
  w.conn.reset(-1);  // drops the partial frame and the unsent queue
  w.state = WorkerLink::State::Down;
  // Never silently drop accepted work: everything in flight at the dead
  // worker is answered Shed (the client may retry; the gap queue keeps
  // holding not-yet-forwarded requests for the reconnect).
  for (auto& [corr, pend] : w.outstanding) {
    bump(&Stats::shed_by_router);
    send_client(pend.client, net::status_frame(pend.client_corr, shed_status, pend.dtype));
  }
  w.outstanding.clear();
  schedule_redial(w);
}

void Router::Impl::dispatch_or_park(WorkerLink& w, WorkerLink::Parked&& p) {
  if (w.state == WorkerLink::State::Up && w.outstanding.size() < window && w.gap.empty()) {
    send_to_worker(w, std::move(p));
    return;
  }
  if (w.gap.size() < gap_cap) {
    w.gap.push_back(std::move(p));
    bump(&Stats::gap_queued);
    return;
  }
  // Gap queue full: per-worker backpressure's last resort.
  bump(&Stats::shed_by_router);
  send_client(p.client, net::status_frame(p.client_corr, net::WireStatus::Shed, p.dtype));
}

void Router::Impl::send_to_worker(WorkerLink& w, WorkerLink::Parked&& p) {
  const std::uint64_t corr = next_corr++;
  std::byte* body = p.frame.data() + net::kHeaderBytes;
  const auto body_len = static_cast<std::uint32_t>(p.frame.size() - net::kHeaderBytes);
  net::store_u64le(body, corr);  // model field was rewritten at decode time
  net::FrameHeader fh;
  fh.type = net::FrameType::Request;
  fh.body_len = body_len;
  fh.body_crc = net::crc32({body, body_len});
  net::encode_header(p.frame, fh);
  WorkerLink::Pending pend;
  pend.client = std::move(p.client);
  pend.client_corr = p.client_corr;
  pend.dtype = p.dtype;
  w.outstanding.emplace(corr, std::move(pend));
  send_link(w, std::move(p.frame));
  bump(&Stats::frames_routed);
}

void Router::Impl::flush_gap(WorkerLink& w) {
  while (w.state == WorkerLink::State::Up && !w.gap.empty() &&
         w.outstanding.size() < window) {
    WorkerLink::Parked p = std::move(w.gap.front());
    w.gap.pop_front();
    send_to_worker(w, std::move(p));
  }
}

void Router::Impl::handle_link_event(WorkerLink& w, std::uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_link(w);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (w.state == WorkerLink::State::Connecting) {
      int soerr = 0;
      socklen_t len = sizeof soerr;
      ::getsockopt(w.conn.fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        fail_link(w);
        return;
      }
      start_handshake(w);
    } else {
      flush_link(w);
    }
    if (w.conn.fd < 0) return;
  }
  if ((events & EPOLLIN) != 0) handle_link_read(w);
}

void Router::Impl::handle_link_read(WorkerLink& w) {
  while (w.conn.fd >= 0) {
    const net::FrameReader::Result res = w.conn.in.read(w.conn.fd);
    if (res == net::FrameReader::Result::WouldBlock) return;
    if (res != net::FrameReader::Result::Frame) {
      fail_link(w);  // EOF, or a worker speaking garbage: treated as dead
      return;
    }
    process_link_frame(w);
  }
}

void Router::Impl::process_link_frame(WorkerLink& w) {
  const net::FrameHeader fh = w.conn.in.header();
  const std::span<const std::byte> body = w.conn.in.body();
  if (fh.type == net::FrameType::Control) {
    net::ControlHead ch;
    if (net::decode_control(body, ch) != net::DecodeError::None) {
      bump(&Stats::protocol_errors);
      return;
    }
    if (ch.kind == net::ControlKind::HelloAck) {
      if (w.state != WorkerLink::State::Handshaking) return;
      if (ch.token != r->topo_.owned_count(w.index)) {
        // Registry mismatch (a worker serving the wrong topology): the
        // link never comes Up, the stats show the redial loop.
        bump(&Stats::protocol_errors);
        fail_link(w);
        return;
      }
      go_up(w);
    } else if (ch.kind == net::ControlKind::HeartbeatAck) {
      w.last_ack_s = clock.seconds();
      bump(&Stats::heartbeats_acked);
    }
    return;
  }
  net::ResponseHead rh;
  std::span<const std::byte> payload;
  if (fh.type != net::FrameType::Response ||
      net::decode_response(body, rh, payload) != net::DecodeError::None) {
    bump(&Stats::protocol_errors);
    return;
  }
  // Any traffic proves liveness (a busy worker may answer heartbeats late).
  w.last_ack_s = clock.seconds();
  const auto it = w.outstanding.find(rh.correlation);
  if (it == w.outstanding.end()) {
    // A worker-originated corr-0 error or a response for a request shed at
    // a previous link incarnation: nobody is waiting for it.
    bump(&Stats::dropped_responses);
    return;
  }
  WorkerLink::Pending pend = std::move(it->second);
  w.outstanding.erase(it);
  // Restore the client's correlation, reseal, and write the relay header
  // in place — the payload bytes the worker produced are never touched,
  // which is what makes the response bitwise-identical to a direct serve.
  std::vector<std::byte> buf = w.conn.in.take();
  net::store_u64le(buf.data() + net::kHeaderBytes, pend.client_corr);
  net::FrameHeader out;
  out.type = net::FrameType::Response;
  out.body_len = fh.body_len;
  out.body_crc = net::crc32({buf.data() + net::kHeaderBytes, fh.body_len});
  net::encode_header(buf, out);
  bump(&Stats::responses_relayed);
  send_client(pend.client, std::move(buf));
  flush_gap(w);
}

// ------------------------------------------------- commands / timers / stop

void Router::Impl::process_commands() {
  std::vector<Endpoint> endpoints;
  bool want_stop = false;
  {
    const runtime::MutexLock lock(cmd_mu);
    endpoints.swap(pending_endpoints);
    want_stop = stop_requested;
  }
  for (const Endpoint& e : endpoints) {
    if (e.index >= links.size()) continue;
    WorkerLink& w = *links[e.index];
    const bool changed = !w.have_endpoint || w.host != e.host || w.port != e.port;
    w.host = e.host;
    w.port = e.port;
    w.have_endpoint = true;
    if (changed && w.state != WorkerLink::State::Down) {
      fail_link(w);  // the old process is gone; shed its in-flight work
    }
    if (w.state == WorkerLink::State::Down) {
      w.backoff_s = redial_min;
      w.next_dial_s = clock.seconds();  // dial the new endpoint immediately
    }
  }
  if (want_stop && !stopping) begin_stop();
}

void Router::Impl::process_timers(double now) {
  for (auto& lp : links) {
    WorkerLink& w = *lp;
    switch (w.state) {
      case WorkerLink::State::Down:
        if (w.have_endpoint && !stopping && now >= w.next_dial_s) dial(w);
        break;
      case WorkerLink::State::Connecting:
      case WorkerLink::State::Handshaking:
        if (now - w.dial_start_s > hb_s * static_cast<double>(r->opts_.heartbeat_misses)) {
          fail_link(w);
        }
        break;
      case WorkerLink::State::Up:
        if (now - w.last_ack_s > hb_s * static_cast<double>(r->opts_.heartbeat_misses)) {
          fail_link(w);
          break;
        }
        if (now >= w.next_hb_s) {
          // The token is any unique nonce.
          send_link(w, net::control_frame(net::ControlKind::Heartbeat, next_corr++));
          bump(&Stats::heartbeats_sent);
          w.next_hb_s = now + hb_s;
        }
        break;
    }
  }
}

double Router::Impl::next_deadline(double now) const {
  double next = now + 1.0;  // idle tick cap
  for (const auto& lp : links) {
    const WorkerLink& w = *lp;
    switch (w.state) {
      case WorkerLink::State::Down:
        if (w.have_endpoint && !stopping) next = std::min(next, w.next_dial_s);
        break;
      case WorkerLink::State::Connecting:
      case WorkerLink::State::Handshaking:
        next = std::min(
            next, w.dial_start_s + hb_s * static_cast<double>(r->opts_.heartbeat_misses));
        break;
      case WorkerLink::State::Up:
        next = std::min(next, w.next_hb_s);
        next = std::min(
            next, w.last_ack_s + hb_s * static_cast<double>(r->opts_.heartbeat_misses));
        break;
    }
  }
  if (stopping) next = std::min(next, stop_deadline_s);
  return next;
}

void Router::Impl::begin_stop() {
  stopping = true;
  stop_deadline_s = clock.seconds() + r->opts_.stop_flush_s;
  // Stop intake: no new clients, no new frames.  In-flight work at the
  // workers still completes and relays within the flush window.
  if (listen_fd >= 0) {
    ::epoll_ctl(ep, EPOLL_CTL_DEL, listen_fd, nullptr);
    ::close(listen_fd);
    listen_fd = -1;
  }
  r->bound_port_.store(0, std::memory_order_release);
  // Gap-queued requests were accepted but can no longer be executed before
  // shutdown: answer ShutDown, exactly like serve's StopMode::Abort.
  for (auto& lp : links) {
    while (!lp->gap.empty()) {
      WorkerLink::Parked p = std::move(lp->gap.front());
      lp->gap.pop_front();
      send_client(p.client, net::status_frame(p.client_corr, net::WireStatus::ShutDown, p.dtype));
    }
  }
  // Reads off; writes keep flushing.
  for (auto& [fd, c] : clients) c->watch(ep, EPOLL_CTL_MOD, fd_data(fd), c->events(false));
}

bool Router::Impl::stop_complete() const {
  for (const auto& lp : links) {
    if (!lp->outstanding.empty()) return false;
  }
  for (const auto& [fd, c] : clients) {
    if (!c->out.empty()) return false;
  }
  return true;
}

void Router::Impl::final_cleanup() {
  // Past the flush window (or drained): anything still outstanding is
  // answered ShutDown on a best-effort final flush, then all fds close.
  for (auto& lp : links) {
    fail_link(*lp, net::WireStatus::ShutDown);
  }
  while (!clients.empty()) {
    const std::shared_ptr<ClientConn> c = clients.begin()->second;
    flush_client(c);
    close_client(c);  // erases it (a no-op if the flush already closed it)
  }
}

void Router::io_loop() {
  Impl& im = *impl_;
  std::array<epoll_event, 64> events{};
  while (true) {
    im.process_commands();
    const double now = im.clock.seconds();
    im.process_timers(now);
    if (im.stopping && (im.stop_complete() || now >= im.stop_deadline_s)) break;
    const double wait_s = std::max(0.0, im.next_deadline(now) - now);
    const int timeout_ms = static_cast<int>(wait_s * 1e3) + 1;
    const int n = ::epoll_wait(im.ep, events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == kWakeFd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto got = ::read(im.event_fd, &drain, sizeof drain);
        continue;
      }
      if (fd == im.listen_fd) {
        im.accept_clients();
        continue;
      }
      if (const auto lit = im.link_by_fd.find(fd); lit != im.link_by_fd.end()) {
        im.handle_link_event(*lit->second, ev);
        continue;
      }
      const auto cit = im.clients.find(fd);
      if (cit == im.clients.end()) continue;
      const std::shared_ptr<ClientConn> c = cit->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        im.close_client(c);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) im.flush_client(c);
      if ((ev & EPOLLIN) != 0) im.handle_client_read(c);
    }
  }
  im.final_cleanup();
}

// ----------------------------------------------------------------- lifecycle

Router::Router(Topology topo, Options opts)
    : topo_(std::move(topo)), opts_(opts), impl_(std::make_unique<Impl>(this)) {
  impl_->max_frame =
      opts_.max_frame_bytes != 0 ? opts_.max_frame_bytes : net::default_max_frame_bytes();
  impl_->window = opts_.worker_window != 0 ? opts_.worker_window : default_worker_window();
  impl_->gap_cap = opts_.gap_queue != static_cast<std::size_t>(-1) ? opts_.gap_queue
                                                                   : default_gap_queue();
  impl_->hb_s = opts_.heartbeat_s > 0.0 ? opts_.heartbeat_s : default_heartbeat_s();
  impl_->redial_min = opts_.redial_min_s > 0.0 ? opts_.redial_min_s : default_backoff_s();
  impl_->redial_max = std::max(opts_.redial_max_s, impl_->redial_min);
  for (std::size_t i = 0; i < topo_.worker_count(); ++i) {
    auto link = std::make_unique<WorkerLink>();
    link->index = i;
    link->backoff_s = impl_->redial_min;
    link->conn = net::FramedConn(-1, impl_->max_frame);
    impl_->links.push_back(std::move(link));
  }
}

Router::~Router() { stop(); }

void Router::set_worker_endpoint(std::size_t index, std::uint16_t port,
                                 const std::string& host) {
  {
    const runtime::MutexLock lock(impl_->cmd_mu);
    impl_->pending_endpoints.push_back({index, host, port});
  }
  if (running()) net::wake(impl_->event_fd);
}

void Router::start() {
  const runtime::MutexLock lock(lifecycle_mu_);
  if (started_) throw std::logic_error("shard::Router::start called twice");

  Impl& im = *impl_;
  std::uint16_t bound = 0;
  const int lfd =
      net::listen_tcp(opts_.port >= 0 ? opts_.port : default_shard_port(), opts_.backlog, bound);
  try {
    net::open_epoll(im.ep, im.event_fd, fd_data(kWakeFd));
  } catch (...) {
    ::close(lfd);
    throw;
  }
  im.listen_fd = lfd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = lfd;
  ::epoll_ctl(im.ep, EPOLL_CTL_ADD, lfd, &ev);
  bound_port_.store(bound, std::memory_order_release);
  started_ = true;
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
}

void Router::stop() {
  const runtime::MutexLock lock(lifecycle_mu_);
  if (!started_ || !running_.load(std::memory_order_acquire)) return;
  {
    const runtime::MutexLock cmd(impl_->cmd_mu);
    impl_->stop_requested = true;
  }
  net::wake(impl_->event_fd);
  if (io_thread_.joinable()) io_thread_.join();
  running_.store(false, std::memory_order_release);
  ::close(impl_->event_fd);
  ::close(impl_->ep);
  impl_->event_fd = impl_->ep = -1;
}

Router::Stats Router::stats() const {
  const runtime::MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace turbofno::shard
