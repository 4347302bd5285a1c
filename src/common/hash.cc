#include "common/hash.h"

#include <zlib.h>

#include <cstring>

#if defined(__x86_64__)
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

namespace lidi {

uint64_t Fnv1a64(Slice data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// CRC-32 by carry-less multiplication: "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", V. Gopal, E. Ozturk et al.,
// Intel, 2009 (the scheme of Linux's crc32-pclmul and Chromium zlib's
// crc32_simd). zlib's crc32_z is the one scalar CRC-32; this kernel only
// takes the whole 16-byte blocks of inputs of 64 bytes or more, on x86-64
// CPUs with PCLMULQDQ and SSE4.1.
// ---------------------------------------------------------------------------

namespace {

#if defined(__x86_64__)

constexpr size_t kClmulMinBytes = 64;

/// Multiplies each 64-bit half of `x` by its constant in `k` and adds
/// `next`: one fold of a 128-bit lane forward over the next block.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold(__m128i x, __m128i k,
                                                      __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Extends the pre-inverted running CRC `crc` (~ of what Crc32Extend takes
/// and returns) over `len` bytes at `p`; `len` is at least 64 and a multiple
/// of 16. Four 128-bit lanes fold 64 bytes per step, the lanes fold into one
/// that absorbs any remaining 16-byte blocks, that folds to 64 bits, and a
/// Barrett reduction leaves the 32-bit remainder. The constants are Gopal
/// et al.'s x^k mod P(x) for the bit-reflected CRC-32/ISO-HDLC polynomial
/// (0xedb88320), each as 33 bits; `poly` holds P(x) and the Barrett
/// quotient floor(x^64 / P(x)).
__attribute__((target("pclmul,sse4.1"))) uint32_t ClmulCrc32(
    uint32_t crc, const uint8_t* p, size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  // A null buffer asks zlib for the initial CRC instead of extending one.
  if (data.empty()) return crc;
  auto p = reinterpret_cast<const Bytef*>(data.data());
  size_t len = data.size();
#if defined(__x86_64__)
  static const bool clmul = CpuHasClmul();
  if (clmul && len >= kClmulMinBytes) {
    const size_t blocks = len & ~size_t{15};
    crc = ~ClmulCrc32(~crc, p, blocks);
    p += blocks;
    len -= blocks;
  }
#endif
  return static_cast<uint32_t>(crc32_z(crc, p, len));
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
