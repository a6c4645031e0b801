// Framed-connection core: the one copy of the socket machinery shared by
// net::SocketServer, shard::Router (its client side and its worker links)
// and net::Client.  Private to the library — it is not in
// TURBOFNO_PUBLIC_HEADERS, and no installed header includes it.
//
//   FrameReader         header-then-body decode into one reusable buffer
//                       with kHeaderBytes of headroom, so a finished frame
//                       is relayable as-is (the router rewrites two body
//                       fields and the header in place)
//   FrameWriter         queue of sealed frames: partial sends, backpressure
//                       watermarks
//   FramedConn          one socket's reader + writer + close-after-flush
//   answer_front_frame  the front-end frame policy (control answers, typed
//                       errors, request decode) both front-ends apply
//   listen_tcp / accept_tcp / dial_tcp / close_drained / open_epoll
//                       socket setup and teardown
#pragma once

#include <sys/epoll.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace turbofno::net {

/// std::system_error for the current errno.
[[nodiscard]] std::system_error sys_error(const char* what);

/// Incremental frame decoder.  Each read() call consumes the header, then
/// exactly its body (never bytes of the next frame), growing the buffer
/// as body bytes arrive: a header alone reserves at most kBodyChunk bytes,
/// however large the body it declares.
class FrameReader {
 public:
  static constexpr std::size_t kBodyChunk = 64u << 10;

  enum class Result : std::uint8_t {
    Frame,       // a complete, checksum-verified frame: header(), body(), take()
    WouldBlock,  // no more bytes for now (EAGAIN, or a blocking read's timeout)
    Closed,      // EOF (errno 0) or a socket error (errno set)
    Bad,         // the frame failed to decode; error() says how
  };

  /// `storage` lends its capacity to the first frame (a blocking caller
  /// reusing its previous response buffer).
  explicit FrameReader(std::size_t max_frame_bytes = kMaxMaxFrameBytes,
                       std::vector<std::byte> storage = {})
      : max_frame_(max_frame_bytes), buf_(std::move(storage)) {
    buf_.clear();
  }

  /// Reads until one frame is complete or the socket stops yielding bytes.
  /// EINTR is retried.  After Frame or Bad, the next call starts a new frame.
  [[nodiscard]] Result read(int fd);

  [[nodiscard]] DecodeError error() const noexcept { return error_; }
  [[nodiscard]] const FrameHeader& header() const noexcept { return fh_; }
  /// The finished frame's body (valid after Frame, until take()).
  [[nodiscard]] std::span<const std::byte> body() const noexcept {
    return {buf_.data() + kHeaderBytes, fh_.body_len};
  }
  /// Moves the finished frame out: header + body, kHeaderBytes +
  /// body_len bytes.  The next frame starts in a fresh buffer.
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::exchange(buf_, {}); }
  /// Drops a partial frame and releases the buffer.
  void reset() noexcept;
  /// True when part of a frame has arrived but not all of it.
  [[nodiscard]] bool mid_frame() const noexcept { return hdr_got_ != 0 && !done_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  void grow();

  std::size_t max_frame_;
  std::array<std::byte, kHeaderBytes> hdr_{};
  std::size_t hdr_got_ = 0;
  FrameHeader fh_;
  std::vector<std::byte> buf_;  // kHeaderBytes headroom + the body received so far
  std::size_t body_got_ = 0;
  bool done_ = false;
  DecodeError error_ = DecodeError::None;
};

/// Outbound queue of sealed frames.  Counts the bytes still unsent;
/// crossing `high_water` pauses the connection's reads until the queue
/// drains below half of it.
class FrameWriter {
 public:
  explicit FrameWriter(std::size_t high_water = std::numeric_limits<std::size_t>::max())
      : high_(high_water) {}

  struct Sent {
    std::size_t frames = 0;  // frames fully handed to the kernel
    bool paused = false;     // this flush crossed the high watermark
    bool error = false;      // the peer is gone: close the connection
  };

  /// Queues the sealed frame at the front of `frame`: kHeaderBytes plus the
  /// body length its header states (the buffer may be longer — a response
  /// is allocated for a payload an error status leaves out).
  void push(std::vector<std::byte>&& frame);
  /// Sends until the queue empties or the socket would block, then applies
  /// the watermarks.
  Sent flush(int fd);
  /// Drops every queued frame, keeping the queue's storage.
  void clear() noexcept;

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t buffered() const noexcept { return bytes_; }
  [[nodiscard]] bool paused() const noexcept { return paused_; }

 private:
  struct Out {
    std::vector<std::byte> data;
    std::size_t len = 0;  // frame bytes at the front of `data`
    std::size_t off = 0;  // of which already sent
  };
  std::deque<Out> q_;
  std::size_t bytes_ = 0;
  std::size_t high_;
  bool paused_ = false;
};

/// One framed socket, owned by a single event-loop thread.
struct FramedConn {
  FramedConn() = default;
  FramedConn(int fd_, std::size_t max_frame_bytes,
             std::size_t high_water = std::numeric_limits<std::size_t>::max())
      : fd(fd_), in(max_frame_bytes), out(high_water) {}

  int fd = -1;
  FrameReader in;
  FrameWriter out;
  bool want_close = false;   // close once `out` drains
  std::uint32_t armed = 0;   // epoll events currently registered

  /// Whether the connection takes input: not closing, not backpressured.
  [[nodiscard]] bool reading() const noexcept { return !want_close && !out.paused(); }
  /// EPOLLIN while reading (and `reads_on`), EPOLLOUT while output is queued.
  [[nodiscard]] std::uint32_t events(bool reads_on) const noexcept {
    return (reads_on && reading() ? EPOLLIN : 0u) | (out.empty() ? 0u : EPOLLOUT);
  }
  /// Points the connection at `new_fd` (-1: none) with nothing read or
  /// queued; the writer keeps its queue storage.
  void reset(int new_fd) noexcept;
  /// Registers (EPOLL_CTL_ADD) or updates (MOD, skipped when unchanged) the
  /// epoll interest.  False when epoll_ctl fails.
  bool watch(int ep, int op, epoll_data_t data, std::uint32_t events) noexcept;
};

/// The front-end frame policy, shared by SocketServer and the router's
/// client side, applied to a reader that returned Frame or Bad:
///   - a frame that failed to decode: its typed error, then close;
///   - Hello / Heartbeat control: the ack (Hello answers `model_count`);
///   - another control kind or a non-request frame: BadFrame, keep;
///   - a request body that fails to decode: its typed error (closing only
///     when decode_error_closes);
///   - a model id >= model_count: UnknownModel, keep;
///   - otherwise `reply` is empty and `head`/`payload` hold the request
///     (`payload` views the reader's buffer, and survives take()).
struct FrontFrame {
  std::vector<std::byte> reply;  // a sealed frame to send, empty for a request
  bool close = false;            // close once `reply` is sent
  bool control = false;          // `reply` is a control ack, not an error
  RequestHead head;
  std::span<const std::byte> payload;
};
[[nodiscard]] FrontFrame answer_front_frame(const FrameReader& in, std::size_t model_count);

/// A sealed payload-less response: typed errors and router verdicts.
[[nodiscard]] std::vector<std::byte> status_frame(std::uint64_t correlation, WireStatus status,
                                                  Dtype dtype = Dtype::C32);
/// A sealed control frame.
[[nodiscard]] std::vector<std::byte> control_frame(ControlKind kind, std::uint64_t token);

/// Non-blocking listening socket on INADDR_ANY:`port` (0 = ephemeral);
/// `bound` receives the resolved port.  Throws std::system_error.
[[nodiscard]] int listen_tcp(int port, int backlog, std::uint16_t& bound);
/// Accepts one pending connection, non-blocking with TCP_NODELAY; -1 when
/// there is none (or the listen socket is gone).
[[nodiscard]] int accept_tcp(int listen_fd) noexcept;
/// Starts a non-blocking TCP_NODELAY connect to numeric IPv4 `host`;
/// `connected` tells whether it completed at once.  -1 with errno set on
/// failure, errno EINVAL when `host` is not a numeric IPv4 address.
/// `rcvbuf` > 0 sets SO_RCVBUF first, so it also bounds the TCP window.
[[nodiscard]] int dial_tcp(const std::string& host, std::uint16_t port, bool& connected,
                           int rcvbuf = 0) noexcept;
/// The one close path: a bounded drain of unread input first, so leftover
/// bytes (the body of a frame whose header already failed) do not turn
/// the close into a TCP RST that destroys a reply still in flight.
void close_drained(int fd) noexcept;

/// Creates an epoll instance and a non-blocking eventfd registered on it
/// for EPOLLIN under `wake`.  Throws std::system_error, leaking nothing.
void open_epoll(int& ep, int& event_fd, epoll_data_t wake);
/// Makes `event_fd` readable (wakes its epoll loop).
void wake(int event_fd) noexcept;

}  // namespace turbofno::net
