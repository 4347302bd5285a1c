#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

namespace lidi {
namespace {

using net::DecodeFrame;
using net::DecodeStatus;
using net::EncodeFrameToString;
using net::Frame;
using net::kDefaultMaxFrameBytes;
using net::kFrameFixedHeader;
using net::StatusFromWire;

std::string RandomString(std::mt19937_64* rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out(len_dist(*rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(*rng));
  return out;
}

Frame RandomFrame(std::mt19937_64* rng) {
  Frame f;
  f.type = ((*rng)() & 1) != 0 ? Frame::kRequest : Frame::kResponse;
  f.correlation_id = (*rng)();
  f.trace_id = (*rng)();
  f.span_id = (*rng)();
  f.deadline_micros = static_cast<int64_t>((*rng)() >> 1);
  f.status_code = static_cast<Code>((*rng)() % 13);
  if (f.type == Frame::kRequest) {
    f.from = RandomString(rng, 64);
    f.to = RandomString(rng, 64);
    f.method = RandomString(rng, 64);
  }
  f.payload = RandomString(rng, 4096);
  return f;
}

/// Seeded round-trip property: encode/decode preserves every field, for
/// arbitrary (including non-UTF8, embedded-NUL) strings and payloads.
/// Replay a failure with LIDI_FRAME_SEED=<seed>.
TEST(FrameTest, RoundTripProperty) {
  uint64_t seed = 0x1d11f4a3e;
  if (const char* env = std::getenv("LIDI_FRAME_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 500; ++i) {
    const Frame f = RandomFrame(&rng);
    const std::string wire = EncodeFrameToString(f, Slice(f.payload));

    Frame d;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(DecodeFrame(Slice(wire), kDefaultMaxFrameBytes, &d, &consumed,
                          &error),
              DecodeStatus::kOk)
        << "seed=" << seed << " iteration=" << i << " error=" << error;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(d.type, f.type);
    EXPECT_EQ(d.correlation_id, f.correlation_id);
    EXPECT_EQ(d.trace_id, f.trace_id);
    EXPECT_EQ(d.span_id, f.span_id);
    EXPECT_EQ(d.deadline_micros, f.deadline_micros);
    EXPECT_EQ(d.status_code, f.status_code);
    EXPECT_EQ(d.from, f.from);
    EXPECT_EQ(d.to, f.to);
    EXPECT_EQ(d.method, f.method);
    EXPECT_EQ(d.payload, f.payload);
  }
}

TEST(FrameTest, DecodesBackToBackFramesFromOneBuffer) {
  Frame a;
  a.from = "client";
  a.to = "server";
  a.method = "echo";
  a.payload = "first";
  Frame b = a;
  b.payload = "second";
  const std::string wire_a = EncodeFrameToString(a, Slice(a.payload));
  const std::string wire = wire_a + EncodeFrameToString(b, Slice(b.payload));

  Frame d;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(Slice(wire), kDefaultMaxFrameBytes, &d, &consumed,
                        &error),
            DecodeStatus::kOk);
  EXPECT_EQ(d.payload, "first");
  EXPECT_EQ(consumed, wire_a.size());
  ASSERT_EQ(DecodeFrame(Slice(wire.data() + consumed, wire.size() - consumed),
                        kDefaultMaxFrameBytes, &d, &consumed, &error),
            DecodeStatus::kOk);
  EXPECT_EQ(d.payload, "second");
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

/// The wire image of one fixed frame, byte for byte. The expected bytes were
/// laid out by hand from the format in net/frame.h, with the trailer from
/// zlib's crc32, so neither a codec change nor a change of CRC-32
/// implementation can move the format unnoticed.
TEST(FrameTest, GoldenFrameBytes) {
  Frame f;
  f.type = Frame::kRequest;
  f.correlation_id = 0x0102030405060708;
  f.trace_id = 0x1112131415161718;
  f.span_id = 0x2122232425262728;
  f.deadline_micros = 1700000000000000;
  f.status_code = Code::kOk;
  f.from = "client-1";
  f.to = "server-2";
  f.method = "echo";
  const std::string payload = "golden payload";
  EXPECT_EQ(Hex(EncodeFrameToString(f, Slice(payload))),
            "580000003146444c010100000807060504030201181716151413121128272625"
            "2423222100401e18240a060000000000080008000400636c69656e742d317365"
            "727665722d326563686f676f6c64656e207061796c6f6164573ab5ac");
}

/// A torn frame — any strict prefix of a valid wire image — asks for more
/// bytes rather than erroring or consuming anything.
TEST(FrameTest, EveryPrefixIsNeedMore) {
  Frame f;
  f.from = "a";
  f.to = "b";
  f.method = "m";
  f.payload = "torn-frame-payload";
  const std::string wire = EncodeFrameToString(f, Slice(f.payload));
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame d;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(Slice(wire.data(), len), kDefaultMaxFrameBytes, &d,
                          &consumed, &error),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

/// Any single corrupted byte past the length prefix fails the CRC (or an
/// earlier structural check) — never decodes to a different frame.
TEST(FrameTest, SingleByteCorruptionIsRejected) {
  Frame f;
  f.from = "client";
  f.to = "server";
  f.method = "echo";
  f.payload = "payload-under-test";
  const std::string wire = EncodeFrameToString(f, Slice(f.payload));
  for (size_t i = 4; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    Frame d;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(Slice(bad), kDefaultMaxFrameBytes, &d, &consumed,
                          &error),
              DecodeStatus::kError)
        << "flipped byte " << i;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrameTest, OversizedFrameIsRejectedWithoutAllocating) {
  Frame f;
  f.payload = "x";
  std::string wire = EncodeFrameToString(f, Slice(f.payload));
  // Claim a body far beyond the cap; only the 4-byte length should be read.
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    wire[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  Frame d;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(Slice(wire), /*max_frame_bytes=*/1 << 20, &d,
                        &consumed, &error),
            DecodeStatus::kError);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos) << error;
}

TEST(FrameTest, UndersizedLengthIsRejected) {
  std::string wire(4 + kFrameFixedHeader + 4, '\0');
  wire[0] = 3;  // body shorter than the fixed header
  Frame d;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(Slice(wire), kDefaultMaxFrameBytes, &d, &consumed,
                        &error),
            DecodeStatus::kError);
}

TEST(FrameTest, StringLengthsBeyondBodyAreRejected) {
  Frame f;
  f.from = "from";
  f.to = "to";
  f.method = "m";
  f.payload = "p";
  std::string wire = EncodeFrameToString(f, Slice(f.payload));
  // Inflate from_len (offset 4 [len] + 44 into the body) beyond the body.
  const size_t from_len_off = 4 + 44;
  wire[from_len_off] = static_cast<char>(0xff);
  wire[from_len_off + 1] = static_cast<char>(0xff);
  Frame d;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(Slice(wire), kDefaultMaxFrameBytes, &d, &consumed,
                        &error),
            DecodeStatus::kError);
  EXPECT_FALSE(error.empty());
}

TEST(FrameTest, StatusRoundTripsThroughWireCode) {
  const Code codes[] = {
      Code::kOk,          Code::kNotFound,       Code::kAlreadyExists,
      Code::kInvalidArgument, Code::kCorruption, Code::kIOError,
      Code::kTimeout,     Code::kUnavailable,    Code::kObsoleteVersion,
      Code::kInsufficientNodes, Code::kNotSupported, Code::kAborted,
      Code::kInternal,
  };
  for (Code code : codes) {
    const Status s = StatusFromWire(code, "msg");
    EXPECT_EQ(s.code(), code);
    if (code != Code::kOk) {
      EXPECT_EQ(s.message(), "msg");
    }
  }
  // Out-of-range codes (newer peer) degrade to Internal, not UB.
  EXPECT_EQ(StatusFromWire(static_cast<Code>(250), "x").code(),
            Code::kInternal);
}

}  // namespace
}  // namespace lidi
