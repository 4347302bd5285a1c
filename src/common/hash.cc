#include "common/hash.h"

#include <zlib.h>

#include <cstring>

namespace lidi {

uint64_t Fnv1a64(Slice data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  // A null buffer asks zlib for the initial CRC instead of extending one.
  if (data.empty()) return crc;
  return static_cast<uint32_t>(
      crc32_z(crc, reinterpret_cast<const Bytef*>(data.data()), data.size()));
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

// ---------------------------------------------------------------------------
// MD5 (RFC 1321). Compact, allocation-free implementation.
// ---------------------------------------------------------------------------

namespace {

struct Md5Context {
  uint32_t a = 0x67452301, b = 0xefcdab89, c = 0x98badcfe, d = 0x10325476;
  uint64_t total_len = 0;
  uint8_t buffer[64];
  size_t buffer_len = 0;
};

constexpr uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int kMd5S[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                           7, 12, 17, 22, 5, 9,  14, 20, 5, 9,  14, 20,
                           5, 9,  14, 20, 5, 9,  14, 20, 4, 11, 16, 23,
                           4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                           6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
                           6, 10, 15, 21};

uint32_t RotL(uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

void Md5Block(Md5Context* ctx, const uint8_t* p) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<uint32_t>(p[4 * i]) |
           static_cast<uint32_t>(p[4 * i + 1]) << 8 |
           static_cast<uint32_t>(p[4 * i + 2]) << 16 |
           static_cast<uint32_t>(p[4 * i + 3]) << 24;
  }
  uint32_t a = ctx->a, b = ctx->b, c = ctx->c, d = ctx->d;
  for (int i = 0; i < 64; ++i) {
    uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) & 15;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) & 15;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) & 15;
    }
    const uint32_t tmp = d;
    d = c;
    c = b;
    b = b + RotL(a + f + kMd5K[i] + m[g], kMd5S[i]);
    a = tmp;
  }
  ctx->a += a;
  ctx->b += b;
  ctx->c += c;
  ctx->d += d;
}

void Md5Update(Md5Context* ctx, const uint8_t* data, size_t len) {
  ctx->total_len += len;
  while (len > 0) {
    if (ctx->buffer_len == 0 && len >= 64) {
      Md5Block(ctx, data);
      data += 64;
      len -= 64;
      continue;
    }
    const size_t take = std::min<size_t>(64 - ctx->buffer_len, len);
    memcpy(ctx->buffer + ctx->buffer_len, data, take);
    ctx->buffer_len += take;
    data += take;
    len -= take;
    if (ctx->buffer_len == 64) {
      Md5Block(ctx, ctx->buffer);
      ctx->buffer_len = 0;
    }
  }
}

std::array<uint8_t, 16> Md5Final(Md5Context* ctx) {
  const uint64_t bit_len = ctx->total_len * 8;
  uint8_t pad[72] = {0x80};
  const size_t rem = ctx->total_len & 63;
  const size_t pad_len = (rem < 56) ? 56 - rem : 120 - rem;
  Md5Update(ctx, pad, pad_len);
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  // Update with length bytes without recounting total_len (already padded).
  memcpy(ctx->buffer + ctx->buffer_len, len_bytes, 8);
  Md5Block(ctx, ctx->buffer);
  std::array<uint8_t, 16> out;
  const uint32_t words[4] = {ctx->a, ctx->b, ctx->c, ctx->d};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<uint8_t>(words[i] >> (8 * j));
    }
  }
  return out;
}

}  // namespace

std::array<uint8_t, 16> Md5(Slice data) {
  Md5Context ctx;
  Md5Update(&ctx, reinterpret_cast<const uint8_t*>(data.data()), data.size());
  return Md5Final(&ctx);
}

std::string Md5Hex(Slice data) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::array<uint8_t, 16> digest = Md5(data);
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[2 * i] = kHex[digest[i] >> 4];
    out[2 * i + 1] = kHex[digest[i] & 15];
  }
  return out;
}

}  // namespace lidi
