#ifndef LIDI_NET_FRAME_H_
#define LIDI_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace lidi::net {

/// Binary framing codec of the TCP transport backend (DESIGN.md §10).
///
/// Wire layout, little-endian, one frame per RPC message:
///
///   u32 frame_len        bytes that follow this field (header..crc)
///   u32 magic            0x4C444631 ("LDF1")
///   u8  version          kFrameVersion
///   u8  type             1 = request, 2 = response
///   u16 flags            reserved (0)
///   u64 correlation_id   matches a response to its pending call
///   u64 trace_id         Dapper-style trace propagation (obs/trace.h)
///   u64 span_id          the caller's span; the handler's ambient parent
///   i64 deadline_micros  absolute deadline (0 = none)
///   i32 status_code      lidi::Code (responses; 0/kOk in requests)
///   u16 from_len, to_len, method_len   (0 in responses)
///   bytes from | to | method | payload
///   u32 crc32            over magic..payload (lidi::Crc32Extend)
///
/// The trailing CRC lets the sender stream a pinned payload (header bytes,
/// then the payload slice, then the 4-byte tail) without concatenating or
/// copying it; the zero-copy fetch path costs one deserialize copy, on the
/// receiving side.
struct Frame {
  static constexpr uint8_t kRequest = 1;
  static constexpr uint8_t kResponse = 2;

  uint8_t type = kRequest;
  uint64_t correlation_id = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  int64_t deadline_micros = 0;
  Code status_code = Code::kOk;  // responses only
  std::string from;              // requests only
  std::string to;                // requests only
  std::string method;            // requests only
  std::string payload;
};

inline constexpr uint32_t kFrameMagic = 0x4C444631;  // "LDF1"
inline constexpr uint8_t kFrameVersion = 1;

/// Fixed bytes between frame_len and the variable strings.
inline constexpr size_t kFrameFixedHeader = 4 + 1 + 1 + 2 + 8 + 8 + 8 + 8 + 4 +
                                            2 + 2 + 2;

/// Default cap a decoder enforces on frame_len. Oversized frames are a
/// protocol error (the connection is poisoned), not an allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// An encoded frame in two pieces: the wire bytes are head | payload | tail.
/// `head` holds frame_len through the end of the method string; `tail` holds
/// the CRC. The payload travels as the caller's own slice, uncopied.
struct EncodedFrame {
  std::string head;
  std::string tail;

  size_t wire_size(size_t payload_size) const {
    return head.size() + payload_size + tail.size();
  }
};

/// Encodes `frame`'s header fields around `payload` (which is NOT copied —
/// the caller writes head, payload, tail in order). frame.payload is
/// ignored; the slice is authoritative.
EncodedFrame EncodeFrame(const Frame& frame, Slice payload);

/// Convenience for tests and small messages: the full contiguous wire image.
std::string EncodeFrameToString(const Frame& frame, Slice payload);

enum class DecodeStatus {
  kOk,        // one frame decoded; *consumed bytes were used
  kNeedMore,  // buf holds a torn (incomplete) frame; read more bytes
  kError,     // corrupt or oversized frame; poison the connection
};

/// Decodes the first frame in `buf`. On kOk fills *frame (payload copied
/// out of the buffer — the receive side's one copy) and *consumed. On
/// kError fills *error; the stream cannot be resynchronized and the
/// connection must be closed.
DecodeStatus DecodeFrame(Slice buf, size_t max_frame_bytes, Frame* frame,
                         size_t* consumed, std::string* error);

/// Reconstructs a Status from a response frame's (status_code, payload)
/// pair — error responses carry the message in the payload. Unknown codes
/// map to Internal so a newer peer cannot make an older one misbehave.
Status StatusFromWire(Code code, std::string message);

}  // namespace lidi::net

#endif  // LIDI_NET_FRAME_H_
