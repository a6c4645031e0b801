// Unit tests of the framed-connection core (net/framed_conn.hpp) over a
// socketpair: FrameReader's incremental header-then-body decode, its
// bounded allocation, and FrameWriter's partial sends and backpressure
// watermarks.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "net/framed_conn.hpp"

namespace turbofno::net {
namespace {

/// A connected AF_UNIX stream pair; [0] is the side under test
/// (non-blocking), [1] the peer.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
    ::fcntl(fd[0], F_SETFL, ::fcntl(fd[0], F_GETFL, 0) | O_NONBLOCK);
  }
  ~SocketPair() {
    for (const int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
  void peer_write(std::span<const std::byte> bytes) const {
    ASSERT_EQ(::write(fd[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void peer_close() {
    ::close(fd[1]);
    fd[1] = -1;
  }
  /// Reads up to `n` bytes at the peer; returns how many arrived.
  std::size_t peer_read(std::vector<std::byte>& into, std::size_t n) const {
    const std::size_t at = into.size();
    into.resize(at + n);
    const auto got = ::recv(fd[1], into.data() + at, n, MSG_DONTWAIT);
    into.resize(at + static_cast<std::size_t>(got > 0 ? got : 0));
    return static_cast<std::size_t>(got > 0 ? got : 0);
  }
};

std::vector<std::byte> request_frame(std::uint64_t correlation, std::size_t payload_bytes) {
  RequestHead h;
  h.correlation = correlation;
  h.dtype = Dtype::F32;
  h.ndim = 1;
  h.dims[0] = static_cast<std::uint32_t>(payload_bytes / 4);
  std::vector<std::byte> payload(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) payload[i] = static_cast<std::byte>(i * 7);
  std::vector<std::byte> frame(encoded_request_bytes(1, payload_bytes));
  encode_request(frame, h, payload);
  return frame;
}

/// The reader's finished frame must be the sent frame, byte for byte.
void expect_frame(FrameReader& in, const std::vector<std::byte>& sent) {
  EXPECT_EQ(in.header().body_len, sent.size() - kHeaderBytes);
  const auto body = in.body();
  ASSERT_EQ(body.size(), sent.size() - kHeaderBytes);
  EXPECT_EQ(std::memcmp(body.data(), sent.data() + kHeaderBytes, body.size()), 0);
  const std::vector<std::byte> whole = in.take();
  EXPECT_EQ(whole, sent);  // header headroom included
}

using R = FrameReader::Result;

// -------------------------------------------------------------- FrameReader

TEST(FrameReader, HeaderFedOneByteAtATime) {
  SocketPair sp;
  FrameReader in;
  const auto f = request_frame(1, 64);
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    sp.peer_write({f.data() + i, 1});
    EXPECT_EQ(in.read(sp.fd[0]), R::WouldBlock) << "byte " << i;
    EXPECT_TRUE(in.mid_frame());
  }
  sp.peer_write({f.data() + kHeaderBytes, f.size() - kHeaderBytes});
  ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
  EXPECT_FALSE(in.mid_frame());
  expect_frame(in, f);
}

TEST(FrameReader, BodySplitAcrossReads) {
  SocketPair sp;
  FrameReader in;
  const auto f = request_frame(2, 4096);
  const std::size_t cuts[] = {kHeaderBytes + 3, kHeaderBytes + 1000, kHeaderBytes + 3000};
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    sp.peer_write({f.data() + at, cut - at});
    at = cut;
    EXPECT_EQ(in.read(sp.fd[0]), R::WouldBlock);
  }
  sp.peer_write({f.data() + at, f.size() - at});
  ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
  expect_frame(in, f);
}

TEST(FrameReader, BackToBackFramesInOneWrite) {
  SocketPair sp;
  FrameReader in;
  const auto a = request_frame(3, 32);
  const auto b = request_frame(4, 256);
  const auto c = control_frame(ControlKind::Heartbeat, 9);  // 12-byte body
  std::vector<std::byte> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  sp.peer_write(all);
  ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
  expect_frame(in, a);
  ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
  // Not taken: the next frame reuses the buffer in place.
  EXPECT_EQ(in.body().size(), b.size() - kHeaderBytes);
  EXPECT_EQ(std::memcmp(in.body().data(), b.data() + kHeaderBytes, in.body().size()), 0);
  ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
  EXPECT_EQ(in.header().type, FrameType::Control);
  expect_frame(in, c);
  EXPECT_EQ(in.read(sp.fd[0]), R::WouldBlock);
  EXPECT_FALSE(in.mid_frame());
}

TEST(FrameReader, EofMidHeaderVersusMidBodyVersusAtABoundary) {
  const auto f = request_frame(5, 128);
  for (const std::size_t cut : {std::size_t{7}, kHeaderBytes + 50, f.size()}) {
    SocketPair sp;
    FrameReader in;
    sp.peer_write({f.data(), cut});
    if (cut == f.size()) {
      ASSERT_EQ(in.read(sp.fd[0]), R::Frame);
    }
    sp.peer_close();
    EXPECT_EQ(in.read(sp.fd[0]), R::Closed) << "cut at " << cut;
    EXPECT_EQ(errno, 0) << "EOF is not a socket error";
    EXPECT_EQ(in.mid_frame(), cut != f.size()) << "cut at " << cut;
  }
}

TEST(FrameReader, BadMagicAndBadChecksumAreTypedDecodeErrors) {
  SocketPair sp;
  FrameReader in;
  auto f = request_frame(6, 64);
  f[0] = static_cast<std::byte>('X');
  sp.peer_write(f);
  EXPECT_EQ(in.read(sp.fd[0]), R::Bad);
  EXPECT_EQ(in.error(), DecodeError::BadMagic);

  SocketPair sp2;
  FrameReader in2;
  auto g = request_frame(7, 64);
  g.back() ^= std::byte{1};
  sp2.peer_write(g);
  EXPECT_EQ(in2.read(sp2.fd[0]), R::Bad);
  EXPECT_EQ(in2.error(), DecodeError::BadChecksum);
}

TEST(FrameReader, DeclaredLengthAloneCannotForceALargeAllocation) {
  // A header claiming a 48 MiB body, followed by only 1 KiB of it: the
  // reader's buffer grows with the bytes that arrive, not the claim.
  SocketPair sp;
  FrameReader in(64u << 20);
  FrameHeader fh;
  fh.type = FrameType::Request;
  fh.body_len = 48u << 20;
  std::vector<std::byte> bytes(kHeaderBytes + 1024);
  encode_header(bytes, fh);
  sp.peer_write(bytes);
  EXPECT_EQ(in.read(sp.fd[0]), R::WouldBlock);
  EXPECT_TRUE(in.mid_frame());
  EXPECT_LT(in.capacity(), std::size_t{1} << 20);
}

TEST(FrameReader, OverLimitDeclaredLengthIsTooLarge) {
  SocketPair sp;
  FrameReader in(4096);
  sp.peer_write(request_frame(8, 8192));
  EXPECT_EQ(in.read(sp.fd[0]), R::Bad);
  EXPECT_EQ(in.error(), DecodeError::TooLarge);
  EXPECT_EQ(in.capacity(), 0u);
}

// -------------------------------------------------------------- FrameWriter

/// Shrinks the side-under-test's send buffer so the kernel takes little.
void small_sndbuf(const SocketPair& sp) {
  const int bytes = 8 * 1024;
  ::setsockopt(sp.fd[0], SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
}

TEST(FrameWriter, PartialSendResumesOnWritability) {
  SocketPair sp;
  small_sndbuf(sp);
  FrameWriter out;
  const auto f = request_frame(9, 1u << 20);
  out.push(std::vector<std::byte>(f));
  FrameWriter::Sent s = out.flush(sp.fd[0]);
  EXPECT_FALSE(s.error);
  EXPECT_EQ(s.frames, 0u);  // the kernel took part of it
  EXPECT_GT(out.buffered(), 0u);
  EXPECT_LT(out.buffered(), f.size());
  EXPECT_FALSE(out.empty());

  // The peer drains, the socket turns writable, the writer resumes where
  // it stopped: every byte arrives once, in order.
  std::vector<std::byte> got;
  while (!out.empty()) {
    sp.peer_read(got, 64 * 1024);
    s = out.flush(sp.fd[0]);
    EXPECT_FALSE(s.error);
    EXPECT_LE(out.buffered() + got.size(), f.size());
  }
  EXPECT_EQ(s.frames, 1u);
  while (got.size() < f.size() && sp.peer_read(got, 64 * 1024) > 0) {
  }
  EXPECT_EQ(got, f);
}

TEST(FrameWriter, PauseAboveHighWatermarkResumeBelowHalf) {
  SocketPair sp;
  small_sndbuf(sp);
  constexpr std::size_t kHigh = 64 * 1024;
  FrameWriter out(kHigh);
  const auto f = request_frame(10, 16 * 1024);
  std::size_t pauses = 0;
  for (int i = 0; i < 16; ++i) {  // 256 KiB queued against a peer that never reads
    out.push(std::vector<std::byte>(f));
    pauses += out.flush(sp.fd[0]).paused ? 1 : 0;
  }
  EXPECT_EQ(pauses, 1u);  // paused once, when the queue crossed kHigh
  EXPECT_TRUE(out.paused());
  EXPECT_GT(out.buffered(), kHigh);

  // Drain the peer in small steps: reads stay paused between the
  // watermarks (hysteresis) and resume only below half of kHigh.
  bool saw_between = false;
  std::vector<std::byte> sink;
  while (out.paused()) {
    sink.clear();
    ASSERT_GT(sp.peer_read(sink, 2048), 0u);
    const FrameWriter::Sent s = out.flush(sp.fd[0]);
    EXPECT_FALSE(s.paused);
    if (out.paused()) {
      EXPECT_GE(out.buffered(), kHigh / 2);
      saw_between = saw_between || out.buffered() <= kHigh;
    }
  }
  EXPECT_LT(out.buffered(), kHigh / 2);
  EXPECT_TRUE(saw_between) << "never observed the queue between the watermarks";
}

}  // namespace
}  // namespace turbofno::net
