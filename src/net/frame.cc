#include "net/frame.h"

#include <cstring>
#include <limits>

#include "common/hash.h"

namespace lidi::net {

namespace {

void PutU16(std::string* out, uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out->append(b, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

uint16_t GetU16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

}  // namespace

EncodedFrame EncodeFrame(const Frame& frame, Slice payload) {
  EncodedFrame out;
  const size_t strings = frame.from.size() + frame.to.size() +
                         frame.method.size();
  const size_t body = kFrameFixedHeader + strings + payload.size() + 4;

  out.head.reserve(4 + kFrameFixedHeader + strings);
  PutU32(&out.head, static_cast<uint32_t>(body));
  PutU32(&out.head, kFrameMagic);
  out.head.push_back(static_cast<char>(kFrameVersion));
  out.head.push_back(static_cast<char>(frame.type));
  PutU16(&out.head, 0);  // flags
  PutU64(&out.head, frame.correlation_id);
  PutU64(&out.head, frame.trace_id);
  PutU64(&out.head, frame.span_id);
  PutU64(&out.head, static_cast<uint64_t>(frame.deadline_micros));
  PutU32(&out.head, static_cast<uint32_t>(frame.status_code));
  PutU16(&out.head, static_cast<uint16_t>(frame.from.size()));
  PutU16(&out.head, static_cast<uint16_t>(frame.to.size()));
  PutU16(&out.head, static_cast<uint16_t>(frame.method.size()));
  out.head.append(frame.from);
  out.head.append(frame.to);
  out.head.append(frame.method);

  uint32_t crc = Crc32(Slice(out.head.data() + 4, out.head.size() - 4));
  crc = Crc32Extend(crc, payload);
  PutU32(&out.tail, crc);
  return out;
}

std::string EncodeFrameToString(const Frame& frame, Slice payload) {
  EncodedFrame e = EncodeFrame(frame, payload);
  std::string wire;
  wire.reserve(e.wire_size(payload.size()));
  wire.append(e.head);
  wire.append(payload.data(), payload.size());
  wire.append(e.tail);
  return wire;
}

DecodeStatus DecodeFrame(Slice buf, size_t max_frame_bytes, Frame* frame,
                         size_t* consumed, std::string* error) {
  if (buf.size() < 4) return DecodeStatus::kNeedMore;
  const uint64_t body = GetU32(buf.data());
  if (body < kFrameFixedHeader + 4) {
    *error = "frame shorter than fixed header";
    return DecodeStatus::kError;
  }
  if (body > max_frame_bytes) {
    *error = "frame of " + std::to_string(body) + " bytes exceeds limit of " +
             std::to_string(max_frame_bytes);
    return DecodeStatus::kError;
  }
  if (buf.size() < 4 + body) return DecodeStatus::kNeedMore;

  const char* p = buf.data() + 4;
  if (GetU32(p) != kFrameMagic) {
    *error = "bad frame magic";
    return DecodeStatus::kError;
  }
  const uint8_t version = static_cast<uint8_t>(p[4]);
  if (version != kFrameVersion) {
    *error = "unsupported frame version " + std::to_string(version);
    return DecodeStatus::kError;
  }
  const uint8_t type = static_cast<uint8_t>(p[5]);
  if (type != Frame::kRequest && type != Frame::kResponse) {
    *error = "unknown frame type " + std::to_string(type);
    return DecodeStatus::kError;
  }

  const uint32_t wire_crc = GetU32(p + body - 4);
  const uint32_t crc = Crc32(Slice(p, body - 4));
  if (crc != wire_crc) {
    *error = "frame CRC mismatch";
    return DecodeStatus::kError;
  }

  frame->type = type;
  // p[6..7] flags (reserved, ignored).
  frame->correlation_id = GetU64(p + 8);
  frame->trace_id = GetU64(p + 16);
  frame->span_id = GetU64(p + 24);
  frame->deadline_micros = static_cast<int64_t>(GetU64(p + 32));
  frame->status_code = static_cast<Code>(GetU32(p + 40));
  const size_t from_len = GetU16(p + 44);
  const size_t to_len = GetU16(p + 46);
  const size_t method_len = GetU16(p + 48);
  const size_t strings = from_len + to_len + method_len;
  if (kFrameFixedHeader + strings + 4 > body) {
    *error = "frame string lengths exceed frame body";
    return DecodeStatus::kError;
  }
  const char* s = p + kFrameFixedHeader;
  frame->from.assign(s, from_len);
  frame->to.assign(s + from_len, to_len);
  frame->method.assign(s + from_len + to_len, method_len);
  const char* payload = s + strings;
  const size_t payload_len = body - kFrameFixedHeader - strings - 4;
  frame->payload.assign(payload, payload_len);
  *consumed = 4 + body;
  return DecodeStatus::kOk;
}

Status StatusFromWire(Code code, std::string message) {
  switch (code) {
    case Code::kOk:
      return Status::OK();
    case Code::kNotFound:
      return Status::NotFound(std::move(message));
    case Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Code::kIOError:
      return Status::IOError(std::move(message));
    case Code::kTimeout:
      return Status::Timeout(std::move(message));
    case Code::kUnavailable:
      return Status::Unavailable(std::move(message));
    case Code::kObsoleteVersion:
      return Status::ObsoleteVersion(std::move(message));
    case Code::kInsufficientNodes:
      return Status::InsufficientNodes(std::move(message));
    case Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Code::kAborted:
      return Status::Aborted(std::move(message));
    case Code::kInternal:
      return Status::Internal(std::move(message));
    case Code::kOverloaded:
      return Status::Overloaded(std::move(message));
  }
  return Status::Internal("unknown wire status code: " + std::move(message));
}

}  // namespace lidi::net
