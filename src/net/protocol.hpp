// TurboFNO wire protocol v1 — versioned, checksummed, length-prefixed
// binary frames for serving FNO inference over a socket.
//
// Every frame is a fixed 16-byte header followed by `body_len` body bytes:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic      "TFNO" (bytes 'T','F','N','O' on the wire)
//        4     1  version    kWireVersion (currently 1)
//        5     1  type       FrameType (1 = request, 2 = response)
//        6     2  reserved   must be 0
//        8     4  body_len   body bytes that follow the header
//       12     4  body_crc   CRC-32 (IEEE 802.3) over the body bytes
//
// Request body (payload directly after a shape-dependent prefix):
//
//   offset        size  field
//   ------        ----  -------------------------------------------------
//        0           8  correlation  client-chosen id, echoed verbatim
//        8           4  model        server-side ModelId
//       12           1  dtype        Dtype (0 = c32 interleaved, 1 = f32)
//       13           1  qos          Qos (0 = high, 1 = normal)
//       14           2  ndim         dims that follow (1..kMaxDims)
//       16           4  deadline_us  relative deadline, 0 = none
//       20      4*ndim  dims[]       logical shape, e.g. [channels, n]
//   20+4*ndim      ...  payload      dtype elements, product(dims) of them
//
// Response body:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     8  correlation  echoed from the request (0 if undecodable)
//        8     1  status       WireStatus
//        9     1  dtype        payload element type (echoes the request)
//       10     2  reserved     must be 0
//       12     4  queue_us     latency breakdown: queue wait
//       16     4  exec_us                          model execution
//       20     4  total_us                         submission -> response
//       24     4  micro_batch  size of the micro-batch the request rode in
//       28   ...  payload      present only when status == Ok
//
// All multi-byte fields are little-endian ON THE WIRE, loaded and stored
// bytewise (shift-and-or, no type punning), so encode/decode round-trips
// identically on little- and big-endian hosts.  Both body prefixes keep
// the payload 4-byte aligned (20 + 4*ndim and 28 are multiples of 4), so a
// frame decoded into 4-byte-aligned storage can hand out f32/c32 payload
// views without copying.
//
// This header is self-contained (header-only codec): the socket server,
// the client, tests, and benches all speak the same inline functions.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "runtime/env.hpp"

namespace turbofno::net {

inline constexpr std::array<std::uint8_t, 4> kMagic = {'T', 'F', 'N', 'O'};
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kMaxDims = 4;
inline constexpr std::size_t kResponsePrefixBytes = 28;

/// Frame kinds carried in the header's `type` field.  Control frames carry
/// the shard-topology handshake/liveness traffic (Hello, Heartbeat); they
/// are additive within wire version 1 — a request/response-only peer
/// answers them with BadFrame, which the sender treats as "no control
/// support", not as stream corruption.
enum class FrameType : std::uint8_t { Request = 1, Response = 2, Control = 3 };

/// Payload element types.  C32 is interleaved re/im single-precision pairs
/// (the Session::run lane); F32 is real samples (the Session::run_real
/// RFFT half-spectrum lane).
enum class Dtype : std::uint8_t { C32 = 0, F32 = 1 };

/// Wire QoS classes, mapped onto serve::Priority.
enum class Qos : std::uint8_t { High = 0, Normal = 1 };

/// Response status codes — the documented contract of the wire protocol.
/// The first five mirror serve::Status; the rest are protocol-level errors
/// a front-end can raise before a request ever reaches the inference
/// server.  Stream-integrity errors (BadMagic, BadVersion, BadChecksum,
/// TooLarge) additionally close the connection after the error response —
/// once framing is untrustworthy, resynchronization is impossible.
enum class WireStatus : std::uint8_t {
  Ok = 0,
  Rejected = 1,       // per-model backlog full
  ShutDown = 2,       // server stopped before execution
  InvalidInput = 3,   // payload does not match the model's shape
  Shed = 4,           // admission control: deadline infeasible at submit
  BadFrame = 5,       // body prefix undecodable (bad ndim/dtype/qos/truncated)
  BadMagic = 6,       // header magic mismatch (closes the connection)
  BadVersion = 7,     // unsupported protocol version (closes the connection)
  BadChecksum = 8,    // body CRC mismatch (closes the connection)
  TooLarge = 9,       // declared body_len over the server frame limit (closes)
  ShapeMismatch = 10,  // dims product disagrees with the payload size
  UnknownModel = 11,  // model id not registered
};

[[nodiscard]] constexpr std::string_view wire_status_name(WireStatus s) noexcept {
  switch (s) {
    case WireStatus::Ok:
      return "ok";
    case WireStatus::Rejected:
      return "rejected";
    case WireStatus::ShutDown:
      return "shut-down";
    case WireStatus::InvalidInput:
      return "invalid-input";
    case WireStatus::Shed:
      return "shed";
    case WireStatus::BadFrame:
      return "bad-frame";
    case WireStatus::BadMagic:
      return "bad-magic";
    case WireStatus::BadVersion:
      return "bad-version";
    case WireStatus::BadChecksum:
      return "bad-checksum";
    case WireStatus::TooLarge:
      return "too-large";
    case WireStatus::ShapeMismatch:
      return "shape-mismatch";
    case WireStatus::UnknownModel:
      return "unknown-model";
  }
  return "?";
}

/// Decode outcomes.  NeedMoreData is progress, not failure; everything
/// else maps 1:1 onto the WireStatus error a server should answer with.
enum class DecodeError : std::uint8_t {
  None = 0,
  NeedMoreData,
  BadMagic,
  BadVersion,
  BadType,
  TooLarge,
  BadChecksum,
  BadBody,       // prefix undecodable: ndim/dtype/qos out of range, truncated
  ShapeMismatch,  // dims product disagrees with the payload bytes present
};

/// The WireStatus a server answers with for a given decode failure.
[[nodiscard]] constexpr WireStatus decode_error_status(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::BadMagic:
      return WireStatus::BadMagic;
    case DecodeError::BadVersion:
      return WireStatus::BadVersion;
    case DecodeError::TooLarge:
      return WireStatus::TooLarge;
    case DecodeError::BadChecksum:
      return WireStatus::BadChecksum;
    case DecodeError::ShapeMismatch:
      return WireStatus::ShapeMismatch;
    default:
      return WireStatus::BadFrame;
  }
}

/// True when the stream can NOT be trusted past this error: the server
/// sends the typed error response and then closes the connection.
[[nodiscard]] constexpr bool decode_error_closes(DecodeError e) noexcept {
  return e == DecodeError::BadMagic || e == DecodeError::BadVersion ||
         e == DecodeError::BadType || e == DecodeError::TooLarge ||
         e == DecodeError::BadChecksum;
}

// ------------------------------------------------------- byte-order helpers
// Bytewise little-endian stores/loads: endianness-independent by
// construction (no reinterpret_cast, no host-order assumptions).

inline void store_u16le(std::byte* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::byte>(v & 0xff);
  p[1] = static_cast<std::byte>((v >> 8) & 0xff);
}

inline void store_u32le(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>(v & 0xff);
  p[1] = static_cast<std::byte>((v >> 8) & 0xff);
  p[2] = static_cast<std::byte>((v >> 16) & 0xff);
  p[3] = static_cast<std::byte>((v >> 24) & 0xff);
}

inline void store_u64le(std::byte* p, std::uint64_t v) noexcept {
  store_u32le(p, static_cast<std::uint32_t>(v & 0xffffffffu));
  store_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] inline std::uint16_t load_u16le(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) |
                                    (std::to_integer<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] inline std::uint32_t load_u32le(const std::byte* p) noexcept {
  return std::to_integer<std::uint32_t>(p[0]) | (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] inline std::uint64_t load_u64le(const std::byte* p) noexcept {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

// ------------------------------------------------------------------- CRC-32
// IEEE 802.3 (reflected 0xEDB88320) — the ubiquitous zlib/Ethernet CRC, so
// non-C++ clients can use any stock implementation.

namespace detail {

consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

/// Slicing-by-8 tables: slice j maps a byte to its CRC contribution when j
/// more bytes follow it in the same 8-byte step (slice 0 is kCrc32Table),
/// so one step folds 8 bytes with 8 independent lookups.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = make_crc32_table();
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t i = 0; i < 256; ++i) t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Slices = make_crc32_slices();

}  // namespace detail

/// CRC-32 of `data`, continuing from `seed` (the CRC of the bytes before
/// it; 0 starts a new one).  Eight bytes per step (slicing-by-8), the tail
/// one at a time; the same value as the bytewise table walk.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::byte> data,
                                         std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrc32Slices;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_u32le(p);
    const std::uint32_t hi = load_u32le(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ std::to_integer<std::uint32_t>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------ frame header

struct FrameHeader {
  FrameType type = FrameType::Request;
  std::uint32_t body_len = 0;
  std::uint32_t body_crc = 0;
};

/// Writes the 16-byte frame header.  `out.size() >= kHeaderBytes`.
inline void encode_header(std::span<std::byte> out, const FrameHeader& h) noexcept {
  for (std::size_t i = 0; i < kMagic.size(); ++i) out[i] = static_cast<std::byte>(kMagic[i]);
  out[4] = static_cast<std::byte>(kWireVersion);
  out[5] = static_cast<std::byte>(h.type);
  store_u16le(out.data() + 6, 0);
  store_u32le(out.data() + 8, h.body_len);
  store_u32le(out.data() + 12, h.body_crc);
}

/// Decodes a frame header.  NeedMoreData when fewer than kHeaderBytes are
/// buffered; TooLarge when the declared body exceeds `max_frame_bytes`.
[[nodiscard]] inline DecodeError decode_header(std::span<const std::byte> in, FrameHeader& h,
                                               std::size_t max_frame_bytes) noexcept {
  if (in.size() < kHeaderBytes) return DecodeError::NeedMoreData;
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (std::to_integer<std::uint8_t>(in[i]) != kMagic[i]) return DecodeError::BadMagic;
  }
  if (std::to_integer<std::uint8_t>(in[4]) != kWireVersion) return DecodeError::BadVersion;
  const auto type = std::to_integer<std::uint8_t>(in[5]);
  if (type != static_cast<std::uint8_t>(FrameType::Request) &&
      type != static_cast<std::uint8_t>(FrameType::Response) &&
      type != static_cast<std::uint8_t>(FrameType::Control)) {
    return DecodeError::BadType;
  }
  h.type = static_cast<FrameType>(type);
  h.body_len = load_u32le(in.data() + 8);
  h.body_crc = load_u32le(in.data() + 12);
  if (h.body_len > max_frame_bytes) return DecodeError::TooLarge;
  return DecodeError::None;
}

/// Verifies the body checksum once all body_len bytes are buffered.
[[nodiscard]] inline DecodeError verify_body(const FrameHeader& h,
                                             std::span<const std::byte> body) noexcept {
  if (body.size() < h.body_len) return DecodeError::NeedMoreData;
  if (crc32(body.first(h.body_len)) != h.body_crc) return DecodeError::BadChecksum;
  return DecodeError::None;
}

// ---------------------------------------------------------------- requests

struct RequestHead {
  std::uint64_t correlation = 0;
  std::uint32_t model = 0;
  Dtype dtype = Dtype::C32;
  Qos qos = Qos::Normal;
  std::uint32_t deadline_us = 0;  // relative, 0 = none
  std::uint16_t ndim = 0;
  std::array<std::uint32_t, kMaxDims> dims{};

  [[nodiscard]] std::uint64_t elems() const noexcept {
    std::uint64_t n = 1;
    for (std::uint16_t i = 0; i < ndim; ++i) n *= dims[i];
    return n;
  }
};

[[nodiscard]] constexpr std::size_t dtype_bytes(Dtype d) noexcept {
  return d == Dtype::C32 ? 8 : 4;
}

[[nodiscard]] constexpr std::size_t request_prefix_bytes(std::size_t ndim) noexcept {
  return 20 + 4 * ndim;
}

/// Total frame bytes (header + body) of a request with this shape/payload.
[[nodiscard]] constexpr std::size_t encoded_request_bytes(std::size_t ndim,
                                                          std::size_t payload_bytes) noexcept {
  return kHeaderBytes + request_prefix_bytes(ndim) + payload_bytes;
}

/// Encodes a complete request frame (header, prefix, payload, checksum)
/// into `out`, which must hold encoded_request_bytes(h.ndim,
/// payload.size()).  Returns the encoded size.
inline std::size_t encode_request(std::span<std::byte> out, const RequestHead& h,
                                  std::span<const std::byte> payload) noexcept {
  const std::size_t prefix = request_prefix_bytes(h.ndim);
  std::byte* b = out.data() + kHeaderBytes;
  store_u64le(b, h.correlation);
  store_u32le(b + 8, h.model);
  b[12] = static_cast<std::byte>(h.dtype);
  b[13] = static_cast<std::byte>(h.qos);
  store_u16le(b + 14, h.ndim);
  store_u32le(b + 16, h.deadline_us);
  for (std::uint16_t i = 0; i < h.ndim; ++i) store_u32le(b + 20 + 4 * i, h.dims[i]);
  if (!payload.empty()) {
    std::copy(payload.begin(), payload.end(), b + prefix);
  }
  const std::uint32_t body_len = static_cast<std::uint32_t>(prefix + payload.size());
  FrameHeader fh;
  fh.type = FrameType::Request;
  fh.body_len = body_len;
  fh.body_crc = crc32({out.data() + kHeaderBytes, body_len});
  encode_header(out, fh);
  return kHeaderBytes + body_len;
}

/// Decodes a request body (after verify_body).  On success `payload` views
/// the payload bytes inside `body` — alive as long as `body`'s storage.
[[nodiscard]] inline DecodeError decode_request(std::span<const std::byte> body, RequestHead& h,
                                                std::span<const std::byte>& payload) noexcept {
  if (body.size() < request_prefix_bytes(1)) return DecodeError::BadBody;
  const std::byte* b = body.data();
  h.correlation = load_u64le(b);
  h.model = load_u32le(b + 8);
  const auto dtype = std::to_integer<std::uint8_t>(b[12]);
  const auto qos = std::to_integer<std::uint8_t>(b[13]);
  if (dtype > static_cast<std::uint8_t>(Dtype::F32)) return DecodeError::BadBody;
  if (qos > static_cast<std::uint8_t>(Qos::Normal)) return DecodeError::BadBody;
  h.dtype = static_cast<Dtype>(dtype);
  h.qos = static_cast<Qos>(qos);
  h.ndim = load_u16le(b + 14);
  h.deadline_us = load_u32le(b + 16);
  if (h.ndim == 0 || h.ndim > kMaxDims) return DecodeError::BadBody;
  const std::size_t prefix = request_prefix_bytes(h.ndim);
  if (body.size() < prefix) return DecodeError::BadBody;
  for (std::uint16_t i = 0; i < h.ndim; ++i) h.dims[i] = load_u32le(b + 20 + 4 * i);
  // The declared shape must account for the payload bytes exactly; the
  // elems() product is checked in 64-bit so dims cannot overflow-collide.
  const std::uint64_t want = h.elems() * dtype_bytes(h.dtype);
  if (want != body.size() - prefix) return DecodeError::ShapeMismatch;
  payload = body.subspan(prefix);
  return DecodeError::None;
}

// --------------------------------------------------------------- responses

struct ResponseHead {
  std::uint64_t correlation = 0;
  WireStatus status = WireStatus::Ok;
  Dtype dtype = Dtype::C32;
  std::uint32_t queue_us = 0;
  std::uint32_t exec_us = 0;
  std::uint32_t total_us = 0;
  std::uint32_t micro_batch = 0;
};

/// Total frame bytes (header + body) of a response with this payload.
[[nodiscard]] constexpr std::size_t encoded_response_bytes(std::size_t payload_bytes) noexcept {
  return kHeaderBytes + kResponsePrefixBytes + payload_bytes;
}

/// Writes a response frame's prefix fields and header for a payload of
/// `payload_bytes` that will be filled in (possibly later, by the session
/// writing directly into the frame) at offset kHeaderBytes +
/// kResponsePrefixBytes.  The header's checksum is NOT yet valid — call
/// seal_response() after the payload bytes are in place.
inline void encode_response_prefix(std::span<std::byte> out, const ResponseHead& h,
                                   std::size_t payload_bytes) noexcept {
  std::byte* b = out.data() + kHeaderBytes;
  store_u64le(b, h.correlation);
  b[8] = static_cast<std::byte>(h.status);
  b[9] = static_cast<std::byte>(h.dtype);
  store_u16le(b + 10, 0);
  store_u32le(b + 12, h.queue_us);
  store_u32le(b + 16, h.exec_us);
  store_u32le(b + 20, h.total_us);
  store_u32le(b + 24, h.micro_batch);
  FrameHeader fh;
  fh.type = FrameType::Response;
  fh.body_len = static_cast<std::uint32_t>(kResponsePrefixBytes + payload_bytes);
  encode_header(out, fh);
}

/// Computes and stores the body checksum of a fully-assembled frame (the
/// header's body_len must already be final).  Returns the frame's total
/// size, kHeaderBytes + body_len.
inline std::size_t seal_response(std::span<std::byte> frame) noexcept {
  const std::uint32_t body_len = load_u32le(frame.data() + 8);
  store_u32le(frame.data() + 12, crc32({frame.data() + kHeaderBytes, body_len}));
  return kHeaderBytes + body_len;
}

/// Encodes a complete payload-less response frame (error replies).
inline std::size_t encode_response(std::span<std::byte> out, const ResponseHead& h) noexcept {
  encode_response_prefix(out, h, 0);
  return seal_response(out);
}

/// Decodes a response body (after verify_body).  `payload` views the
/// payload bytes inside `body`.
[[nodiscard]] inline DecodeError decode_response(std::span<const std::byte> body,
                                                 ResponseHead& h,
                                                 std::span<const std::byte>& payload) noexcept {
  if (body.size() < kResponsePrefixBytes) return DecodeError::BadBody;
  const std::byte* b = body.data();
  h.correlation = load_u64le(b);
  const auto status = std::to_integer<std::uint8_t>(b[8]);
  const auto dtype = std::to_integer<std::uint8_t>(b[9]);
  if (status > static_cast<std::uint8_t>(WireStatus::UnknownModel)) return DecodeError::BadBody;
  if (dtype > static_cast<std::uint8_t>(Dtype::F32)) return DecodeError::BadBody;
  h.status = static_cast<WireStatus>(status);
  h.dtype = static_cast<Dtype>(dtype);
  h.queue_us = load_u32le(b + 12);
  h.exec_us = load_u32le(b + 16);
  h.total_us = load_u32le(b + 20);
  h.micro_batch = load_u32le(b + 24);
  payload = body.subspan(kResponsePrefixBytes);
  return DecodeError::None;
}

// ---------------------------------------------------------- control frames
// Handshake/liveness traffic of the shard topology (router <-> worker, and
// the supervisor's health probes).  A control frame is a normal CRC-sealed
// frame whose 12-byte body is {kind u8, 3 reserved bytes, token u64}.

enum class ControlKind : std::uint8_t {
  Hello = 1,         // sent after connect; token = expected peer model count (0 = any)
  HelloAck = 2,      // reply; token = the server's registered model count
  Heartbeat = 3,     // liveness probe; token is an opaque nonce
  HeartbeatAck = 4,  // reply; echoes the probe's token
};

struct ControlHead {
  ControlKind kind = ControlKind::Heartbeat;
  std::uint64_t token = 0;
};

inline constexpr std::size_t kControlBodyBytes = 12;

/// Total frame bytes (header + body) of a control frame.
[[nodiscard]] constexpr std::size_t encoded_control_bytes() noexcept {
  return kHeaderBytes + kControlBodyBytes;
}

/// Encodes a complete control frame into `out` (>= encoded_control_bytes()).
/// Returns the encoded size.
inline std::size_t encode_control(std::span<std::byte> out, const ControlHead& h) noexcept {
  std::byte* b = out.data() + kHeaderBytes;
  b[0] = static_cast<std::byte>(h.kind);
  b[1] = b[2] = b[3] = std::byte{0};
  store_u64le(b + 4, h.token);
  FrameHeader fh;
  fh.type = FrameType::Control;
  fh.body_len = kControlBodyBytes;
  fh.body_crc = crc32({out.data() + kHeaderBytes, kControlBodyBytes});
  encode_header(out, fh);
  return kHeaderBytes + kControlBodyBytes;
}

/// Decodes a control body (after verify_body).
[[nodiscard]] inline DecodeError decode_control(std::span<const std::byte> body,
                                                ControlHead& h) noexcept {
  if (body.size() != kControlBodyBytes) return DecodeError::BadBody;
  const auto kind = std::to_integer<std::uint8_t>(body[0]);
  if (kind < static_cast<std::uint8_t>(ControlKind::Hello) ||
      kind > static_cast<std::uint8_t>(ControlKind::HeartbeatAck)) {
    return DecodeError::BadBody;
  }
  h.kind = static_cast<ControlKind>(kind);
  h.token = load_u64le(body.data() + 4);
  return DecodeError::None;
}

// --------------------------------------------------------------- env knobs

/// TURBOFNO_NET_PORT: default listening port of net::SocketServer when
/// Options::port is left at its sentinel.  Clamped to the valid TCP range;
/// garbage/overflow falls back to 7470 (see runtime::env_long).
[[nodiscard]] inline std::uint16_t default_port() noexcept {
  return static_cast<std::uint16_t>(
      runtime::env_long_clamped("TURBOFNO_NET_PORT", 7470, 0, 65535));
}

/// TURBOFNO_NET_MAX_FRAME: largest accepted frame body in bytes (default
/// 64 MiB).  The floor keeps every valid single-field request of modest
/// size admissible; the ceiling bounds per-connection memory a malicious
/// declared length can demand.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;
inline constexpr std::size_t kMinMaxFrameBytes = 4096;
inline constexpr std::size_t kMaxMaxFrameBytes = 1u << 30;

[[nodiscard]] inline std::size_t default_max_frame_bytes() noexcept {
  return static_cast<std::size_t>(runtime::env_long_clamped(
      "TURBOFNO_NET_MAX_FRAME", static_cast<long>(kDefaultMaxFrameBytes),
      static_cast<long>(kMinMaxFrameBytes), static_cast<long>(kMaxMaxFrameBytes)));
}

}  // namespace turbofno::net
