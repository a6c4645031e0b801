#include "net/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "net/framed_conn.hpp"

namespace turbofno::net {

namespace {

void write_all(int fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    const auto w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw sys_error("send");
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

/// Blocking read of one frame (the client side of FrameReader): false on
/// EOF at a frame boundary; throws when the stream ends mid-frame, a read
/// times out (SO_RCVTIMEO), or the frame fails to decode.
[[nodiscard]] bool read_frame(int fd, FrameReader& in) {
  switch (in.read(fd)) {
    case FrameReader::Result::Frame:
      return true;
    case FrameReader::Result::WouldBlock:
      // SO_RCVTIMEO expired (set_io_timeout / ConnectOptions::io_timeout_s).
      throw std::runtime_error("net::Client: read timed out");
    case FrameReader::Result::Closed:
      if (errno != 0) throw sys_error("read");
      if (in.mid_frame()) throw std::runtime_error("net::Client: stream ended mid-frame");
      return false;
    case FrameReader::Result::Bad:
      break;
  }
  throw std::runtime_error("net::Client: malformed frame");
}

}  // namespace

Client::~Client() { close(); }

void Client::dial_once(std::uint16_t port, const std::string& host, double timeout_s) {
  close();
  bool connected = false;
  fd_ = dial_tcp(host, port, connected, rcvbuf_);
  if (fd_ < 0) {
    if (errno == EINVAL) throw std::runtime_error("net::Client: bad IPv4 host: " + host);
    throw sys_error("connect");
  }
  if (!connected) {
    // Wait for the nonblocking connect (bounded unless timeout_s <= 0),
    // then read the outcome back with SO_ERROR.
    pollfd pfd{fd_, POLLOUT, 0};
    const int wait_ms = timeout_s > 0.0 ? static_cast<int>(timeout_s * 1e3) : -1;
    int ready = 0;
    while ((ready = ::poll(&pfd, 1, wait_ms)) < 0 && errno == EINTR) {
    }
    int err = ready == 0 ? ETIMEDOUT : errno;
    socklen_t len = sizeof err;
    if (ready > 0) ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close();
      errno = err;
      throw sys_error("connect");
    }
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) & ~O_NONBLOCK);  // the client blocks
}

void Client::connect(std::uint16_t port, const std::string& host) {
  connect(port, host, ConnectOptions{});
}

void Client::connect(std::uint16_t port, const std::string& host, const ConnectOptions& opts) {
  const int attempts = std::max(opts.attempts, 1);
  double backoff = opts.backoff_s;
  for (int a = 0;; ++a) {
    try {
      dial_once(port, host, opts.timeout_s);
      break;
    } catch (...) {
      if (a + 1 >= attempts) throw;
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      backoff *= 2.0;
    }
  }
  if (opts.io_timeout_s > 0.0) set_io_timeout(opts.io_timeout_s);
}

void Client::set_io_timeout(double seconds) noexcept {
  io_timeout_s_ = seconds < 0.0 ? 0.0 : seconds;
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(io_timeout_s_);
  tv.tv_usec = static_cast<suseconds_t>((io_timeout_s_ - std::floor(io_timeout_s_)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool Client::ping(double timeout_s) noexcept {
  if (fd_ < 0) return false;
  const double saved = io_timeout_s_;
  bool ok = false;
  try {
    const std::uint64_t token = next_correlation_++;
    const auto frame = control_frame(ControlKind::Heartbeat, token);
    write_all(fd_, frame.data(), frame.size());
    set_io_timeout(timeout_s > 0.0 ? timeout_s : 1.0);
    FrameReader in;
    ControlHead ack;
    ok = read_frame(fd_, in) && in.header().type == FrameType::Control &&
         decode_control(in.body(), ack) == DecodeError::None &&
         ack.kind == ControlKind::HeartbeatAck && ack.token == token;
  } catch (...) {
    ok = false;
  }
  set_io_timeout(saved);
  return ok;
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Client::send_request(std::uint32_t model, Dtype dtype,
                                   std::span<const std::uint32_t> dims,
                                   std::span<const std::byte> payload, Qos qos,
                                   std::uint32_t deadline_us) {
  if (dims.empty() || dims.size() > kMaxDims) {
    throw std::invalid_argument("net::Client: ndim out of range");
  }
  RequestHead h;
  h.correlation = next_correlation_++;
  h.model = model;
  h.dtype = dtype;
  h.qos = qos;
  h.deadline_us = deadline_us;
  h.ndim = static_cast<std::uint16_t>(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) h.dims[i] = dims[i];
  scratch_.resize(encoded_request_bytes(h.ndim, payload.size()));
  const std::size_t len = encode_request(scratch_, h, payload);
  write_all(fd_, scratch_.data(), len);
  return h.correlation;
}

bool Client::recv_response(Result& out) {
  // The client trusts its server on size (it asked for this response).
  FrameReader in(kMaxMaxFrameBytes, std::move(out.body));
  if (!read_frame(fd_, in)) return false;
  if (in.header().type != FrameType::Response) {
    throw std::runtime_error("net::Client: expected a response frame");
  }
  out.body = in.take();
  out.body.erase(out.body.begin(), out.body.begin() + kHeaderBytes);
  std::span<const std::byte> payload;
  if (decode_response(out.body, out.head, payload) != DecodeError::None) {
    throw std::runtime_error("net::Client: malformed response body");
  }
  return true;
}

Client::Result Client::infer(std::uint32_t model, Dtype dtype,
                             std::span<const std::uint32_t> dims,
                             std::span<const std::byte> payload, Qos qos,
                             std::uint32_t deadline_us) {
  const std::uint64_t corr = send_request(model, dtype, dims, payload, qos, deadline_us);
  Result r;
  if (!recv_response(r)) {
    throw std::runtime_error("net::Client: server closed before responding");
  }
  if (r.head.correlation != corr && r.head.correlation != 0) {
    throw std::runtime_error("net::Client: correlation mismatch (pipelining misuse?)");
  }
  return r;
}

Client::Result Client::infer_c32(std::uint32_t model, std::span<const std::uint32_t> dims,
                                 std::span<const c32> input, Qos qos,
                                 std::uint32_t deadline_us) {
  return infer(model, Dtype::C32, dims,
               {reinterpret_cast<const std::byte*>(input.data()), input.size_bytes()}, qos,
               deadline_us);
}

Client::Result Client::infer_real(std::uint32_t model, std::span<const std::uint32_t> dims,
                                  std::span<const float> input, Qos qos,
                                  std::uint32_t deadline_us) {
  return infer(model, Dtype::F32, dims,
               {reinterpret_cast<const std::byte*>(input.data()), input.size_bytes()}, qos,
               deadline_us);
}

void Client::send_bytes(std::span<const std::byte> bytes) {
  write_all(fd_, bytes.data(), bytes.size());
}

bool Client::recv_closed(double timeout_s) {
  set_io_timeout(timeout_s);
  std::byte buf[4096];
  while (true) {
    const auto r = ::read(fd_, buf, sizeof buf);
    if (r == 0) return true;  // clean EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return true;  // peer terminated the stream
      return false;  // timeout (EAGAIN): the stream is still open
    }
  }
}

}  // namespace turbofno::net
