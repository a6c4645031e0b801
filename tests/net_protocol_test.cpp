// Wire-protocol codec tests: round-trip properties over the whole option
// space (frame types, QoS classes, dtypes, 1..4-dim shapes, empty and
// large payloads), a golden little-endian byte layout (so the format is
// pinned against accidental re-ordering, on either host endianness), and
// a deterministic malformed-frame corpus covering every DecodeError.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "net/protocol.hpp"

namespace turbofno::net {
namespace {

std::vector<std::byte> patterned_payload(std::size_t bytes) {
  std::vector<std::byte> p(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::byte>((i * 131 + 17) & 0xff);
  }
  return p;
}

RequestHead make_head(std::span<const std::uint32_t> dims, Dtype dtype, Qos qos) {
  RequestHead h;
  h.correlation = 0x0123456789abcdefULL;
  h.model = 7;
  h.dtype = dtype;
  h.qos = qos;
  h.deadline_us = 2500;
  h.ndim = static_cast<std::uint16_t>(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) h.dims[i] = dims[i];
  return h;
}

std::vector<std::byte> encode_request_frame(const RequestHead& h,
                                            std::span<const std::byte> payload) {
  std::vector<std::byte> f(encoded_request_bytes(h.ndim, payload.size()));
  const std::size_t n = encode_request(f, h, payload);
  EXPECT_EQ(n, f.size());
  return f;
}

// ---------------------------------------------------------------- CRC-32

TEST(NetProtocol, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::byte*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

/// The bytewise table walk crc32 ran before slicing-by-8.
std::uint32_t crc32_bytewise(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c = detail::kCrc32Table[(c ^ std::to_integer<std::uint32_t>(b)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(NetProtocol, Crc32SlicingMatchesBytewise) {
  // Random lengths 0..1000 at every start offset 0..7, so the 8-byte steps
  // see every alignment and every tail length.  Each piece is seeded with
  // the previous piece's CRC, and continuing a CRC must equal one CRC over
  // the concatenated bytes.
  std::srand(20261019);
  std::vector<std::byte> buf(1008);
  for (auto& b : buf) b = static_cast<std::byte>(std::rand() & 0xff);
  std::uint32_t seed = 0;
  for (std::size_t off = 0; off < 8; ++off) {
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t len = static_cast<std::size_t>(std::rand()) % 1001;
      const std::span<const std::byte> piece(buf.data() + off, len);
      const std::uint32_t got = crc32(piece, seed);
      ASSERT_EQ(got, crc32_bytewise(piece, seed))
          << "offset " << off << ", length " << len << ", seed " << seed;
      seed = got;
      EXPECT_EQ(crc32(piece, crc32(std::span<const std::byte>(buf.data(), off))),
                crc32(std::span<const std::byte>(buf.data(), off + len)));
    }
  }
}

// ------------------------------------------------------------ round trips

TEST(NetProtocol, RequestRoundTripAllOptions) {
  const std::vector<std::vector<std::uint32_t>> shapes = {
      {64}, {2, 64}, {2, 16, 16}, {2, 3, 4, 5}};
  for (const Dtype dtype : {Dtype::C32, Dtype::F32}) {
    for (const Qos qos : {Qos::High, Qos::Normal}) {
      for (const auto& dims : shapes) {
        const RequestHead h = make_head(dims, dtype, qos);
        const std::size_t bytes = static_cast<std::size_t>(h.elems()) * dtype_bytes(dtype);
        const auto payload = patterned_payload(bytes);
        const auto frame = encode_request_frame(h, payload);

        FrameHeader fh;
        ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
        EXPECT_EQ(fh.type, FrameType::Request);
        ASSERT_EQ(frame.size(), kHeaderBytes + fh.body_len);
        const std::span<const std::byte> body{frame.data() + kHeaderBytes, fh.body_len};
        ASSERT_EQ(verify_body(fh, body), DecodeError::None);

        RequestHead got;
        std::span<const std::byte> got_payload;
        ASSERT_EQ(decode_request(body, got, got_payload), DecodeError::None);
        EXPECT_EQ(got.correlation, h.correlation);
        EXPECT_EQ(got.model, h.model);
        EXPECT_EQ(got.dtype, h.dtype);
        EXPECT_EQ(got.qos, h.qos);
        EXPECT_EQ(got.deadline_us, h.deadline_us);
        ASSERT_EQ(got.ndim, h.ndim);
        for (std::uint16_t i = 0; i < h.ndim; ++i) EXPECT_EQ(got.dims[i], h.dims[i]);
        ASSERT_EQ(got_payload.size(), payload.size());
        EXPECT_EQ(std::memcmp(got_payload.data(), payload.data(), payload.size()), 0);
      }
    }
  }
}

TEST(NetProtocol, RequestRoundTripEmptyPayload) {
  // A zero dim is a legal shape whose payload is empty.
  const std::uint32_t dims[] = {0};
  const RequestHead h = make_head(dims, Dtype::F32, Qos::Normal);
  const auto frame = encode_request_frame(h, {});
  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  RequestHead got;
  std::span<const std::byte> payload;
  ASSERT_EQ(decode_request({frame.data() + kHeaderBytes, fh.body_len}, got, payload),
            DecodeError::None);
  EXPECT_TRUE(payload.empty());
}

TEST(NetProtocol, RequestRoundTripLargePayload) {
  // A payload right at a small server's frame limit still round-trips.
  const std::uint32_t dims[] = {1u << 18};  // 1 MiB of f32
  const RequestHead h = make_head(dims, Dtype::F32, Qos::High);
  const auto payload = patterned_payload((1u << 18) * 4);
  const auto frame = encode_request_frame(h, payload);
  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kMaxMaxFrameBytes), DecodeError::None);
  const std::span<const std::byte> body{frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  ASSERT_EQ(verify_body(fh, body), DecodeError::None);
  RequestHead got;
  std::span<const std::byte> got_payload;
  ASSERT_EQ(decode_request(body, got, got_payload), DecodeError::None);
  EXPECT_EQ(got_payload.size(), payload.size());
}

TEST(NetProtocol, ResponseRoundTrip) {
  ResponseHead h;
  h.correlation = 42;
  h.status = WireStatus::Ok;
  h.dtype = Dtype::C32;
  h.queue_us = 11;
  h.exec_us = 22;
  h.total_us = 33;
  h.micro_batch = 4;
  const auto payload = patterned_payload(64 * 8);
  std::vector<std::byte> frame(encoded_response_bytes(payload.size()));
  // The serving path writes the prefix first and the payload later (the
  // session fills it in place), then seals — mirror that order here.
  encode_response_prefix(frame, h, payload.size());
  std::memcpy(frame.data() + kHeaderBytes + kResponsePrefixBytes, payload.data(),
              payload.size());
  EXPECT_EQ(seal_response(frame), frame.size());

  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  EXPECT_EQ(fh.type, FrameType::Response);
  const std::span<const std::byte> body{frame.data() + kHeaderBytes, fh.body_len};
  ASSERT_EQ(verify_body(fh, body), DecodeError::None);
  ResponseHead got;
  std::span<const std::byte> got_payload;
  ASSERT_EQ(decode_response(body, got, got_payload), DecodeError::None);
  EXPECT_EQ(got.correlation, h.correlation);
  EXPECT_EQ(got.status, WireStatus::Ok);
  EXPECT_EQ(got.dtype, Dtype::C32);
  EXPECT_EQ(got.queue_us, 11u);
  EXPECT_EQ(got.exec_us, 22u);
  EXPECT_EQ(got.total_us, 33u);
  EXPECT_EQ(got.micro_batch, 4u);
  ASSERT_EQ(got_payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(got_payload.data(), payload.data(), payload.size()), 0);
}

TEST(NetProtocol, ErrorResponseHasNoPayload) {
  ResponseHead h;
  h.correlation = 9;
  h.status = WireStatus::BadChecksum;
  std::vector<std::byte> frame(encoded_response_bytes(0));
  EXPECT_EQ(encode_response(frame, h), kHeaderBytes + kResponsePrefixBytes);
  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  ResponseHead got;
  std::span<const std::byte> payload;
  ASSERT_EQ(decode_response({frame.data() + kHeaderBytes, fh.body_len}, got, payload),
            DecodeError::None);
  EXPECT_EQ(got.status, WireStatus::BadChecksum);
  EXPECT_TRUE(payload.empty());
}

// -------------------------------------------------------- golden layout

TEST(NetProtocol, GoldenByteLayout) {
  // Hand-computed frame: pins the on-wire layout (field order, offsets,
  // little-endianness) independently of the encode/decode pair agreeing.
  const std::uint32_t dims[] = {2, 3};
  RequestHead h;
  h.correlation = 0x1122334455667788ULL;
  h.model = 0xA1B2C3D4u;
  h.dtype = Dtype::F32;
  h.qos = Qos::High;
  h.deadline_us = 0x000F4240u;  // 1e6
  h.ndim = 2;
  h.dims[0] = dims[0];
  h.dims[1] = dims[1];
  const auto payload = patterned_payload(6 * 4);
  const auto frame = encode_request_frame(h, payload);

  const auto u8 = [&](std::size_t i) { return std::to_integer<unsigned>(frame[i]); };
  // Header: magic, version, type, reserved, body_len.
  EXPECT_EQ(u8(0), 'T');
  EXPECT_EQ(u8(1), 'F');
  EXPECT_EQ(u8(2), 'N');
  EXPECT_EQ(u8(3), 'O');
  EXPECT_EQ(u8(4), 1u);  // version
  EXPECT_EQ(u8(5), 1u);  // FrameType::Request
  EXPECT_EQ(u8(6), 0u);
  EXPECT_EQ(u8(7), 0u);
  const std::uint32_t body_len = 20 + 4 * 2 + 24;
  EXPECT_EQ(u8(8), body_len & 0xff);  // little-endian low byte first
  EXPECT_EQ(u8(9), 0u);
  // Body: correlation little-endian (low byte 0x88 first).
  EXPECT_EQ(u8(16), 0x88u);
  EXPECT_EQ(u8(23), 0x11u);
  // model
  EXPECT_EQ(u8(24), 0xD4u);
  EXPECT_EQ(u8(27), 0xA1u);
  // dtype, qos
  EXPECT_EQ(u8(28), 1u);  // F32
  EXPECT_EQ(u8(29), 0u);  // High
  // ndim
  EXPECT_EQ(u8(30), 2u);
  EXPECT_EQ(u8(31), 0u);
  // deadline_us = 1e6 = 0x000F4240
  EXPECT_EQ(u8(32), 0x40u);
  EXPECT_EQ(u8(33), 0x42u);
  EXPECT_EQ(u8(34), 0x0Fu);
  EXPECT_EQ(u8(35), 0x00u);
  // dims
  EXPECT_EQ(u8(36), 2u);
  EXPECT_EQ(u8(40), 3u);
  // payload begins at 20 + 4*2 = 28 into the body (44 absolute): 4-byte
  // aligned, as documented.
  EXPECT_EQ(request_prefix_bytes(2) % 4, 0u);
  EXPECT_EQ(u8(44), std::to_integer<unsigned>(payload[0]));
}

// ---------------------------------------------------- malformed corpus

TEST(NetProtocol, TruncatedHeaderNeedsMoreData) {
  const std::uint32_t dims[] = {4};
  const auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                          patterned_payload(16));
  FrameHeader fh;
  for (std::size_t n = 0; n < kHeaderBytes; ++n) {
    EXPECT_EQ(decode_header({frame.data(), n}, fh, kDefaultMaxFrameBytes),
              DecodeError::NeedMoreData);
  }
}

TEST(NetProtocol, BadMagicRejectedAndCloses) {
  const std::uint32_t dims[] = {4};
  auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                    patterned_payload(16));
  frame[0] = static_cast<std::byte>('X');
  FrameHeader fh;
  EXPECT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::BadMagic);
  EXPECT_TRUE(decode_error_closes(DecodeError::BadMagic));
  EXPECT_EQ(decode_error_status(DecodeError::BadMagic), WireStatus::BadMagic);
}

TEST(NetProtocol, BadVersionRejectedAndCloses) {
  const std::uint32_t dims[] = {4};
  auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                    patterned_payload(16));
  frame[4] = static_cast<std::byte>(99);
  FrameHeader fh;
  EXPECT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::BadVersion);
  EXPECT_TRUE(decode_error_closes(DecodeError::BadVersion));
  EXPECT_EQ(decode_error_status(DecodeError::BadVersion), WireStatus::BadVersion);
}

TEST(NetProtocol, BadFrameTypeRejectedAndCloses) {
  const std::uint32_t dims[] = {4};
  auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                    patterned_payload(16));
  frame[5] = static_cast<std::byte>(7);
  FrameHeader fh;
  EXPECT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::BadType);
  EXPECT_TRUE(decode_error_closes(DecodeError::BadType));
}

TEST(NetProtocol, OverLimitDeclaredLengthRejectedAndCloses) {
  const std::uint32_t dims[] = {4};
  const auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                          patterned_payload(16));
  FrameHeader fh;
  // The same frame decodes fine with a generous limit and TooLarge with a
  // tiny one — the check is against the *declared* length, pre-buffering,
  // so a malicious length cannot demand memory.
  EXPECT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  EXPECT_EQ(decode_header(frame, fh, 8), DecodeError::TooLarge);
  EXPECT_TRUE(decode_error_closes(DecodeError::TooLarge));
  EXPECT_EQ(decode_error_status(DecodeError::TooLarge), WireStatus::TooLarge);
}

TEST(NetProtocol, ChecksumMismatchRejectedAndCloses) {
  const std::uint32_t dims[] = {4};
  auto frame = encode_request_frame(make_head(dims, Dtype::F32, Qos::Normal),
                                    patterned_payload(16));
  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  frame[frame.size() - 1] ^= static_cast<std::byte>(0x01);  // flip one payload bit
  EXPECT_EQ(verify_body(fh, {frame.data() + kHeaderBytes, fh.body_len}),
            DecodeError::BadChecksum);
  EXPECT_TRUE(decode_error_closes(DecodeError::BadChecksum));
}

TEST(NetProtocol, ShapePayloadDisagreementRejected) {
  // Declared dims say 8 elements; payload carries 4. Recoverable (the
  // stream framing is intact) — the connection stays open.
  const std::uint32_t dims[] = {8};
  RequestHead h = make_head(dims, Dtype::F32, Qos::Normal);
  const auto payload = patterned_payload(4 * 4);
  std::vector<std::byte> frame(encoded_request_bytes(h.ndim, payload.size()));
  encode_request(frame, h, payload);
  FrameHeader fh;
  ASSERT_EQ(decode_header(frame, fh, kDefaultMaxFrameBytes), DecodeError::None);
  const std::span<const std::byte> body{frame.data() + kHeaderBytes, fh.body_len};
  ASSERT_EQ(verify_body(fh, body), DecodeError::None);
  RequestHead got;
  std::span<const std::byte> p;
  EXPECT_EQ(decode_request(body, got, p), DecodeError::ShapeMismatch);
  EXPECT_FALSE(decode_error_closes(DecodeError::ShapeMismatch));
  EXPECT_EQ(decode_error_status(DecodeError::ShapeMismatch), WireStatus::ShapeMismatch);
}

TEST(NetProtocol, BadBodyFieldsRejected) {
  const std::uint32_t dims[] = {4};
  const auto payload = patterned_payload(16);
  const RequestHead h = make_head(dims, Dtype::F32, Qos::Normal);
  const auto good = encode_request_frame(h, payload);
  const std::size_t body_len = good.size() - kHeaderBytes;

  const auto expect_bad = [&](std::size_t body_off, std::uint8_t value) {
    auto frame = good;
    frame[kHeaderBytes + body_off] = static_cast<std::byte>(value);
    RequestHead got;
    std::span<const std::byte> p;
    EXPECT_EQ(decode_request({frame.data() + kHeaderBytes, body_len}, got, p),
              DecodeError::BadBody);
  };
  expect_bad(12, 2);    // dtype out of range
  expect_bad(13, 2);    // qos out of range
  expect_bad(14, 0);    // ndim == 0
  expect_bad(14, 200);  // ndim > kMaxDims
  // Truncated body: shorter than the minimal prefix.
  RequestHead got;
  std::span<const std::byte> p;
  EXPECT_EQ(decode_request({good.data() + kHeaderBytes, 8}, got, p), DecodeError::BadBody);
  EXPECT_FALSE(decode_error_closes(DecodeError::BadBody));
  EXPECT_EQ(decode_error_status(DecodeError::BadBody), WireStatus::BadFrame);
}

TEST(NetProtocol, DimsOverflowCannotCollideWithPayload) {
  // 2^16 * 2^16 * 2^16 * 2 overflows 32 bits to a small number; the elems
  // product is computed in 64-bit so the declared payload cannot match.
  const std::uint32_t dims[] = {1u << 16, 1u << 16, 1u << 16, 2};
  RequestHead h = make_head(dims, Dtype::F32, Qos::Normal);
  const auto payload = patterned_payload(8);  // == (2^48 * 2 mod 2^32) * 4? no: tiny
  std::vector<std::byte> frame(encoded_request_bytes(h.ndim, payload.size()));
  encode_request(frame, h, payload);
  RequestHead got;
  std::span<const std::byte> p;
  EXPECT_EQ(decode_request({frame.data() + kHeaderBytes, frame.size() - kHeaderBytes}, got, p),
            DecodeError::ShapeMismatch);
}

// ------------------------------------------------------------- env knobs

TEST(NetProtocol, PortKnobParsesAndClamps) {
  ::unsetenv("TURBOFNO_NET_PORT");
  EXPECT_EQ(default_port(), 7470);
  ::setenv("TURBOFNO_NET_PORT", "8123", 1);
  EXPECT_EQ(default_port(), 8123);
  ::setenv("TURBOFNO_NET_PORT", "99999", 1);  // above the TCP range: clamped
  EXPECT_EQ(default_port(), 65535);
  ::setenv("TURBOFNO_NET_PORT", "-5", 1);
  EXPECT_EQ(default_port(), 0);
  ::setenv("TURBOFNO_NET_PORT", "12a", 1);  // trailing garbage: default
  EXPECT_EQ(default_port(), 7470);
  ::unsetenv("TURBOFNO_NET_PORT");
}

TEST(NetProtocol, MaxFrameKnobParsesAndClamps) {
  ::unsetenv("TURBOFNO_NET_MAX_FRAME");
  EXPECT_EQ(default_max_frame_bytes(), kDefaultMaxFrameBytes);
  ::setenv("TURBOFNO_NET_MAX_FRAME", "1048576", 1);
  EXPECT_EQ(default_max_frame_bytes(), 1048576u);
  ::setenv("TURBOFNO_NET_MAX_FRAME", "1", 1);  // below the floor: clamped up
  EXPECT_EQ(default_max_frame_bytes(), kMinMaxFrameBytes);
  ::setenv("TURBOFNO_NET_MAX_FRAME", "99999999999", 1);  // huge: clamped down
  EXPECT_EQ(default_max_frame_bytes(), kMaxMaxFrameBytes);
  ::setenv("TURBOFNO_NET_MAX_FRAME", "", 1);  // empty: default
  EXPECT_EQ(default_max_frame_bytes(), kDefaultMaxFrameBytes);
  ::unsetenv("TURBOFNO_NET_MAX_FRAME");
}

// ----------------------------------------------------------- control frames

TEST(NetProtocol, ControlFrameRoundTripsAllKinds) {
  for (const ControlKind kind : {ControlKind::Hello, ControlKind::HelloAck,
                                 ControlKind::Heartbeat, ControlKind::HeartbeatAck}) {
    ControlHead in;
    in.kind = kind;
    in.token = 0xfeedfacecafef00dULL;
    std::vector<std::byte> frame(encoded_control_bytes());
    const std::size_t len = encode_control(frame, in);
    ASSERT_EQ(len, kHeaderBytes + kControlBodyBytes);

    FrameHeader fh;
    ASSERT_EQ(decode_header({frame.data(), kHeaderBytes}, fh, 1 << 20), DecodeError::None);
    EXPECT_EQ(fh.type, FrameType::Control);  // type 3 passes the header check
    EXPECT_EQ(fh.body_len, kControlBodyBytes);
    const std::span<const std::byte> body{frame.data() + kHeaderBytes, fh.body_len};
    ASSERT_EQ(verify_body(fh, body), DecodeError::None);

    ControlHead out;
    ASSERT_EQ(decode_control(body, out), DecodeError::None);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.token, in.token);
  }
}

TEST(NetProtocol, ControlFrameGoldenByteLayout) {
  ControlHead h;
  h.kind = ControlKind::Heartbeat;
  h.token = 0x1122334455667788ULL;
  std::vector<std::byte> frame(encoded_control_bytes());
  (void)encode_control(frame, h);
  const auto* b = reinterpret_cast<const unsigned char*>(frame.data()) + kHeaderBytes;
  EXPECT_EQ(b[0], 3u);  // kind = Heartbeat
  EXPECT_EQ(b[1], 0u);  // zero padding
  EXPECT_EQ(b[2], 0u);
  EXPECT_EQ(b[3], 0u);
  // token, little-endian at body offset 4.
  EXPECT_EQ(b[4], 0x88u);
  EXPECT_EQ(b[5], 0x77u);
  EXPECT_EQ(b[11], 0x11u);
}

TEST(NetProtocol, MalformedControlBodiesRejected) {
  std::vector<std::byte> frame(encoded_control_bytes());
  ControlHead good;
  good.kind = ControlKind::Hello;
  good.token = 5;
  (void)encode_control(frame, good);

  ControlHead out;
  // Kind 0 and kinds past HeartbeatAck are BadBody.
  for (const unsigned bad_kind : {0u, 5u, 200u}) {
    auto f = frame;
    f[kHeaderBytes] = static_cast<std::byte>(bad_kind);
    EXPECT_EQ(decode_control({f.data() + kHeaderBytes, kControlBodyBytes}, out),
              DecodeError::BadBody)
        << "kind " << bad_kind;
  }
  // A truncated control body is BadBody, not a read past the end.
  EXPECT_EQ(decode_control({frame.data() + kHeaderBytes, kControlBodyBytes - 1}, out),
            DecodeError::BadBody);
}

}  // namespace
}  // namespace turbofno::net
