#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "../bench/bench_util.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/compression.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace lidi {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("key k1");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key k1");
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r = Status::Timeout("deadline");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
}

TEST(StatusTest, ResultMoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Comparison) {
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(Slice("", 0)), 0xcbf29ce484222325ULL);
  // Deterministic and spread out.
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("voldemort"), Fnv1a64("voldemort"));
}

TEST(HashTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32(Slice("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Slice("", 0)), 0u);
}

TEST(HashTest, Crc32Incremental) {
  const uint32_t whole = Crc32(Slice("hello world"));
  uint32_t inc = Crc32(Slice("hello "));
  inc = Crc32Extend(inc, Slice("world"));
  EXPECT_EQ(inc, whole);
}

/// Bitwise CRC-32/ISO-HDLC (reflected polynomial 0xedb88320, pre- and
/// post-inverted): the definition every stored and wire checksum is made
/// with, whatever computes Crc32. Extends `crc` as Crc32Extend does.
uint32_t ReferenceCrc32Extend(uint32_t crc, Slice data) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < data.size(); ++i) {
    c ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xedb88320u : c >> 1;
  }
  return ~c;
}

std::string RandomBinary(Random* rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng->Next());
  return out;
}

/// Copies `bytes` to the end of a heap buffer of exactly `offset` +
/// `bytes.size()` bytes. The copy starts `offset` bytes past a 16-byte
/// aligned allocation, and ASan reports any read past its last byte.
std::vector<char> AtEndOfBuffer(size_t offset, Slice bytes) {
  std::vector<char> buffer(offset + bytes.size());
  std::copy(bytes.data(), bytes.data() + bytes.size(),
            buffer.begin() + static_cast<ptrdiff_t>(offset));
  return buffer;
}

TEST(HashTest, Crc32MatchesBitwiseReferenceAtEveryLength) {
  // Every start alignment, and every length through the folding kernel's
  // boundaries: 63-65, 127-129, 255-257 and 4095-4097 bytes.
  constexpr size_t kMaxLength = 4097;
  Random rng(17);
  const std::string data = RandomBinary(&rng, 16 + kMaxLength);
  for (size_t offset = 0; offset < 16; ++offset) {
    // The reference runs once over the offset's bytes; prefix n's CRC is its
    // running value after n bytes.
    uint32_t reference = 0;
    for (size_t n = 0; n <= kMaxLength; ++n) {
      const Slice input(data.data() + offset, n);
      const std::vector<char> buffer = AtEndOfBuffer(offset, input);
      ASSERT_EQ(Crc32(Slice(buffer.data() + offset, n)), reference)
          << "offset " << offset << " length " << n;
      reference =
          ReferenceCrc32Extend(reference, Slice(input.data() + n, 1));
    }
  }
}

TEST(HashTest, Crc32MatchesBitwiseReferenceOnOneMebibyte) {
  // Larger than the biggest frame perfbench's activity workload sends (a
  // 300 KB fetch reply), from an aligned start and the most misaligned one.
  constexpr size_t kLength = 1 << 20;
  Random rng(41);
  const std::string data = RandomBinary(&rng, 16 + kLength);
  for (size_t offset : {0, 15}) {
    const Slice input(data.data() + offset, kLength);
    const std::vector<char> buffer = AtEndOfBuffer(offset, input);
    ASSERT_EQ(Crc32(Slice(buffer.data() + offset, kLength)),
              ReferenceCrc32Extend(0, input))
        << "offset " << offset;
  }
}

TEST(HashTest, Crc32ExtendMatchesReferenceAtSeededSplits) {
  Random rng(29);
  const std::string data = RandomBinary(&rng, 4096 + 64);
  for (int i = 0; i < 1000; ++i) {
    const size_t start = rng.Uniform(64);
    const size_t len = rng.Uniform(4097);
    size_t split = rng.Uniform(len + 1);
    if (i % 2 == 1 && len >= 16) {
      // 1-15 bytes before a 16-byte boundary of the input: the head ends in
      // a partial block, which the scalar tail takes.
      split = 16 * (1 + rng.Uniform(len / 16)) - 1 - rng.Uniform(15);
    }
    const size_t offset = start % 16;
    const std::vector<char> buffer =
        AtEndOfBuffer(offset, Slice(data.data() + start, len));
    const Slice whole(buffer.data() + offset, len);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t head = Crc32Extend(seed, Slice(whole.data(), split));
    const uint32_t crc =
        Crc32Extend(head, Slice(whole.data() + split, len - split));
    ASSERT_EQ(crc, ReferenceCrc32Extend(seed, whole))
        << "start " << start << " length " << len << " split " << split;
    ASSERT_EQ(Crc32(whole), ReferenceCrc32Extend(0, whole));
  }
  // An empty slice extends nothing, even one with no buffer behind it.
  EXPECT_EQ(Crc32Extend(0x12345678u, Slice(nullptr, 0)), 0x12345678u);
}

TEST(HashTest, Md5Rfc1321Vectors) {
  EXPECT_EQ(Md5Hex(Slice("", 0)), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5Hex(Slice("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5Hex(Slice("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(
      Md5Hex(Slice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")),
      "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(HashTest, Md5LongInput) {
  // Exercises the multi-block and padding paths.
  std::string input(1000, 'x');
  EXPECT_EQ(Md5Hex(input).size(), 32u);
  EXPECT_EQ(Md5Hex(input), Md5Hex(input));
  std::string input2 = input;
  input2[999] = 'y';
  EXPECT_NE(Md5Hex(input), Md5Hex(input2));
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  ASSERT_EQ(buf.size(), 4u);
  Slice in(buf);
  uint32_t v;
  ASSERT_TRUE(GetFixed32(&in, &v));
  EXPECT_EQ(v, 0xdeadbeefu);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint64_t v;
  ASSERT_TRUE(GetFixed64(&in, &v));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(CodingTest, VarintRoundTripSweep) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 20,
                     1ULL << 35, ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, ZigZagRoundTripSweep) {
  const int64_t values[] = {0,         1,         -1,       63, -64,
                            1LL << 40, -(1LL << 40), INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    std::string buf;
    PutZigZag64(&buf, v);
    Slice in(buf);
    int64_t got;
    ASSERT_TRUE(GetZigZag64(&in, &got)) << v;
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, ZigZagSmallMagnitudeIsShort) {
  // Zig-zag should encode small negative numbers in one byte.
  std::string buf;
  PutZigZag64(&buf, -1);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("payload"));
  PutLengthPrefixed(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, TruncatedInputsFail) {
  Slice in("\x01", 1);  // length prefix says 1 byte but nothing follows...
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  Slice trunc(buf.data(), buf.size() - 1);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&trunc, &out));
  uint32_t v32;
  Slice tiny("ab", 2);
  EXPECT_FALSE(GetFixed32(&tiny, &v32));
}

TEST(RandomTest, Deterministic) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RandomTest, BytesCompressible) {
  Random r(3);
  const std::string data = r.Bytes(4096);
  std::string compressed;
  ASSERT_TRUE(Compress(CompressionCodec::kDeflate, data, &compressed).ok());
  EXPECT_LT(compressed.size(), data.size());
}

TEST(ZipfTest, SkewConcentratesOnHeadRanks) {
  ZipfGenerator zipf(1000, 0.99, 11);
  int head = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With theta=0.99, top-10 of 1000 ranks should receive well over 25%.
  EXPECT_GT(head, kSamples / 4);
}

TEST(ZipfTest, CoversRangeAndDeterministic) {
  ZipfGenerator a(50, 0.5, 9), b(50, 0.5, 9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = a.Next();
    EXPECT_EQ(v, b.Next());
    EXPECT_LT(v, 50u);
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 30u);  // tail still gets sampled
}

// Regression for the out-of-domain tail draw: the old implementation
// materialized the full CDF and binary-searched it, and a uniform draw
// landing above the last floating-point CDF entry made std::lower_bound
// return end() — i.e. rank n, outside [0, n). Seed 5618432's first
// NextDouble() is 2.5e-8, which the rejection-inversion sampler maps to the
// far edge of the inversion domain (x ~ n + 0.5, k = n + 1 before the
// clamp), so every one of these draws exercises the boundary.
TEST(ZipfTest, TailDrawStaysInDomain) {
  const uint64_t kTailSeed = 5618432;
  for (const double theta : {0.0, 0.5, 0.9, 0.99, 1.0, 1.2}) {
    for (const uint64_t n : {1ull, 2ull, 50ull, 1000ull}) {
      ZipfGenerator zipf(n, theta, kTailSeed);
      for (int i = 0; i < 200; ++i) {
        EXPECT_LT(zipf.Next(), n) << "n=" << n << " theta=" << theta;
      }
    }
  }
  // Pin the boundary case itself: the first draw under the tail seed must
  // resolve to the last in-domain rank, not n.
  ZipfGenerator tail(1000, 0.99, kTailSeed);
  EXPECT_EQ(tail.Next(), 999u);
}

// The old CDF cost 8 bytes per rank (8 MB per million keys); a 2^30-rank
// generator would have allocated 8.6 GB and looped a billion pow() calls in
// the constructor. Rejection-inversion is O(1) setup and memory, so
// billion-key generators are free — this test fails (OOM or timeout)
// against the old implementation.
TEST(ZipfTest, BillionKeyGeneratorIsCheapAndInDomain) {
  ZipfGenerator zipf(1ull << 30, 0.99, 7);
  uint64_t max_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, zipf.n());
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(max_seen, 1ull << 20);  // the deep tail is actually reachable
}

// The sampler must follow the exact Zipf pmf, not just "be skewed":
// empirical frequencies over 200K draws stay within a few relative percent
// of 1/(rank^theta * H_{n,theta}) for every rank of a small domain.
TEST(ZipfTest, MatchesExactZipfPmf) {
  const uint64_t kN = 20;
  const double kTheta = 0.9;
  ZipfGenerator zipf(kN, kTheta, 42);
  std::vector<int> counts(kN, 0);
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Next()]++;
  double harmonic = 0;
  for (uint64_t r = 1; r <= kN; ++r) harmonic += 1.0 / std::pow(r, kTheta);
  for (uint64_t r = 0; r < kN; ++r) {
    const double exact = (1.0 / std::pow(r + 1.0, kTheta)) / harmonic;
    const double emp = static_cast<double>(counts[r]) / kSamples;
    EXPECT_NEAR(emp, exact, 0.15 * exact + 0.002)
        << "rank " << r;
  }
}

TEST(CompressionTest, DeflateRoundTrip) {
  const std::string input = "the quick brown fox jumps over the lazy dog, "
                            "the quick brown fox jumps again and again";
  std::string compressed;
  ASSERT_TRUE(Compress(CompressionCodec::kDeflate, input, &compressed).ok());
  std::string output;
  ASSERT_TRUE(Decompress(CompressionCodec::kDeflate, compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressionTest, NoneCodecPassesThrough) {
  std::string out;
  ASSERT_TRUE(Compress(CompressionCodec::kNone, "abc", &out).ok());
  EXPECT_EQ(out, "abc");
  std::string back;
  ASSERT_TRUE(Decompress(CompressionCodec::kNone, out, &back).ok());
  EXPECT_EQ(back, "abc");
}

TEST(CompressionTest, EmptyInput) {
  std::string compressed, output;
  ASSERT_TRUE(Compress(CompressionCodec::kDeflate, Slice("", 0), &compressed).ok());
  ASSERT_TRUE(Decompress(CompressionCodec::kDeflate, compressed, &output).ok());
  EXPECT_TRUE(output.empty());
}

TEST(CompressionTest, CorruptInputRejected) {
  std::string output;
  Status s = Decompress(CompressionCodec::kDeflate, "not deflate data", &output);
  EXPECT_FALSE(s.ok());
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.AdvanceMillis(2);
  EXPECT_EQ(clock.NowMicros(), 3000);
  EXPECT_EQ(clock.NowMillis(), 3);
}

TEST(ClockTest, SystemClockMonotonic) {
  SystemClock* clock = SystemClock::Default();
  const int64_t a = clock->NowMicros();
  const int64_t b = clock->NowMicros();
  EXPECT_GE(b, a);
}

TEST(HistogramTest, Percentiles) {
  bench::Samples h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_DOUBLE_EQ(h.Average(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99, 1.1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_EQ(h.count(), 100u);
}

TEST(HistogramTest, RecordAfterPercentileStillSorts) {
  bench::Samples h;
  h.Record(5);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 5);
  h.Record(1);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1);
}

TEST(HistogramTest, EmptyHistogramReturnsZero) {
  // Regression: every accessor must return 0 on an empty histogram instead
  // of indexing into the empty sample vector.
  bench::Samples h;
  EXPECT_DOUBLE_EQ(h.Average(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0);
  EXPECT_DOUBLE_EQ(h.Max(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_FALSE(h.Summary().empty());
  // Clear returns a used histogram to the empty contract.
  h.Record(7);
  h.Clear();
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0);
  EXPECT_DOUBLE_EQ(h.Max(), 0);
}

}  // namespace
}  // namespace lidi
