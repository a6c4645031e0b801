#include "net/framed_conn.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace turbofno::net {

namespace {

void set_nodelay(int fd) noexcept {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

std::system_error sys_error(const char* what) { return {errno, std::generic_category(), what}; }

// ------------------------------------------------------------- FrameReader

void FrameReader::reset() noexcept {
  done_ = false;
  hdr_got_ = body_got_ = 0;
  error_ = DecodeError::None;
  buf_ = {};
}

FrameReader::Result FrameReader::read(int fd) {
  if (done_) {
    done_ = false;
    hdr_got_ = body_got_ = 0;
    error_ = DecodeError::None;
  }
  while (true) {
    const bool in_header = hdr_got_ < kHeaderBytes;
    if (!in_header && body_got_ == fh_.body_len) {
      done_ = true;
      error_ = verify_body(fh_, body());
      return error_ == DecodeError::None ? Result::Frame : Result::Bad;
    }
    if (!in_header && kHeaderBytes + body_got_ == buf_.size()) grow();
    std::byte* const dst =
        in_header ? hdr_.data() + hdr_got_ : buf_.data() + kHeaderBytes + body_got_;
    const std::size_t room =
        in_header ? kHeaderBytes - hdr_got_ : buf_.size() - kHeaderBytes - body_got_;
    const auto n = ::read(fd, dst, room);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Result::WouldBlock;
    if (n <= 0) {
      if (n == 0) errno = 0;
      return Result::Closed;
    }
    if (!in_header) {
      body_got_ += static_cast<std::size_t>(n);
      continue;
    }
    hdr_got_ += static_cast<std::size_t>(n);
    if (hdr_got_ < kHeaderBytes) continue;
    error_ = decode_header(hdr_, fh_, max_frame_);
    if (error_ != DecodeError::None) {
      done_ = true;
      return Result::Bad;
    }
    buf_.clear();
    grow();
    std::copy(hdr_.begin(), hdr_.end(), buf_.begin());
  }
}

void FrameReader::grow() {
  // Room for twice what has arrived (at least kBodyChunk), never past the
  // declared body: the declared length alone cannot make the reader
  // allocate, only bytes actually received can.
  const std::size_t ahead = std::max(body_got_, kBodyChunk);
  buf_.resize(kHeaderBytes + std::min<std::size_t>(fh_.body_len, body_got_ + ahead));
}

// ------------------------------------------------------------- FrameWriter

void FrameWriter::push(std::vector<std::byte>&& frame) {
  const std::size_t len = kHeaderBytes + load_u32le(frame.data() + 8);
  bytes_ += len;
  q_.push_back({std::move(frame), len, 0});
}

void FrameWriter::clear() noexcept {
  q_.clear();
  bytes_ = 0;
  paused_ = false;
}

FrameWriter::Sent FrameWriter::flush(int fd) {
  Sent s;
  while (!q_.empty()) {
    Out& o = q_.front();
    const auto n = ::send(fd, o.data.data() + o.off, o.len - o.off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      s.error = true;
      return s;
    }
    o.off += static_cast<std::size_t>(n);
    bytes_ -= static_cast<std::size_t>(n);
    if (o.off < o.len) break;  // kernel buffer full mid-frame
    q_.pop_front();
    ++s.frames;
  }
  if (bytes_ > high_) {
    s.paused = !paused_;
    paused_ = true;
  } else if (paused_ && bytes_ < high_ / 2) {
    paused_ = false;
  }
  return s;
}

// -------------------------------------------------------------- FramedConn

void FramedConn::reset(int new_fd) noexcept {
  fd = new_fd;
  in.reset();
  out.clear();
  want_close = false;
  armed = 0;
}

bool FramedConn::watch(int ep, int op, epoll_data_t data, std::uint32_t ev) noexcept {
  if (op == EPOLL_CTL_MOD && ev == armed) return true;
  epoll_event e{};
  e.events = ev;
  e.data = data;
  if (::epoll_ctl(ep, op, fd, &e) != 0) return false;
  armed = ev;
  return true;
}

// -------------------------------------------------------- front-end policy

FrontFrame answer_front_frame(const FrameReader& in, std::size_t model_count) {
  FrontFrame f;
  if (in.error() != DecodeError::None) {
    // Framing is untrustworthy from here on: typed error, then close.
    f.reply = status_frame(0, decode_error_status(in.error()));
    f.close = true;
    return f;
  }
  const std::span<const std::byte> body = in.body();
  if (in.header().type == FrameType::Control) {
    // Handshake/liveness traffic from a router or supervisor probe.  Hello
    // is answered with the model count (the prober checks it against its
    // topology); Heartbeat echoes the token.  An ack sent *at* a front-end
    // is a confused peer — well-formed stream, typed error, keep.
    ControlHead ch;
    if (decode_control(body, ch) == DecodeError::None &&
        (ch.kind == ControlKind::Hello || ch.kind == ControlKind::Heartbeat)) {
      const bool hello = ch.kind == ControlKind::Hello;
      f.reply = control_frame(hello ? ControlKind::HelloAck : ControlKind::HeartbeatAck,
                              hello ? model_count : ch.token);
      f.control = true;
    } else {
      f.reply = status_frame(0, WireStatus::BadFrame);
    }
    return f;
  }
  if (in.header().type != FrameType::Request) {
    // A response frame sent at a front-end is a confused peer; the stream
    // is well-formed, so answer typed and keep the connection.
    f.reply = status_frame(0, WireStatus::BadFrame);
    return f;
  }
  const DecodeError e = decode_request(body, f.head, f.payload);
  if (e != DecodeError::None) {
    f.reply = status_frame(e == DecodeError::ShapeMismatch ? f.head.correlation : 0,
                           decode_error_status(e));
    f.close = decode_error_closes(e);
  } else if (f.head.model >= model_count) {
    f.reply = status_frame(f.head.correlation, WireStatus::UnknownModel, f.head.dtype);
  }
  return f;
}

std::vector<std::byte> status_frame(std::uint64_t correlation, WireStatus status, Dtype dtype) {
  ResponseHead rh;
  rh.correlation = correlation;
  rh.status = status;
  rh.dtype = dtype;
  std::vector<std::byte> frame(encoded_response_bytes(0));
  encode_response(frame, rh);
  return frame;
}

std::vector<std::byte> control_frame(ControlKind kind, std::uint64_t token) {
  std::vector<std::byte> frame(encoded_control_bytes());
  encode_control(frame, {kind, token});
  return frame;
}

// ------------------------------------------------------- socket plumbing

int listen_tcp(int port, int backlog, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw sys_error("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const auto err = sys_error("bind/listen");
    ::close(fd);
    throw err;
  }
  bound = ntohs(addr.sin_port);
  return fd;
}

int accept_tcp(int listen_fd) noexcept {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

int dial_tcp(const std::string& host, std::uint16_t port, bool& connected, int rcvbuf) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  set_nodelay(fd);
  connected = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  if (!connected && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

void close_drained(int fd) noexcept {
  // Bounded, so an abusive peer cannot stall the event loop.
  std::array<std::byte, 4096> sink;
  for (int i = 0; i < 64 && ::read(fd, sink.data(), sink.size()) > 0; ++i) {
  }
  ::close(fd);
}

void open_epoll(int& ep, int& event_fd, epoll_data_t wake) {
  ep = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data = wake;
  if (ep < 0 || event_fd < 0 || ::epoll_ctl(ep, EPOLL_CTL_ADD, event_fd, &ev) != 0) {
    const auto err = sys_error("epoll/eventfd");
    if (ep >= 0) ::close(ep);
    if (event_fd >= 0) ::close(event_fd);
    ep = event_fd = -1;
    throw err;
  }
}

void wake(int event_fd) noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(event_fd, &one, sizeof one);
}

}  // namespace turbofno::net
