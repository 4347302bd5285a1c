#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>

#include "common/clock.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "io/file.h"
#include "kafka/audit.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/log.h"
#include "kafka/message.h"
#include "kafka/mirror.h"
#include "kafka/producer.h"
#include "net/network.h"
#include "zk/zookeeper.h"

#include "status_test_util.h"

namespace lidi::kafka {
namespace {

// ---------------------------------------------------------------------------
// Message sets
// ---------------------------------------------------------------------------

TEST(MessageSetTest, BuildAndIterate) {
  MessageSetBuilder builder;
  builder.Add("alpha");
  builder.Add("beta");
  builder.Add("gamma");
  EXPECT_EQ(builder.count(), 3);
  const std::string set = builder.Build();
  EXPECT_TRUE(builder.empty());

  MessageSetIterator it(set, 1000);
  Message message;
  std::vector<std::string> payloads;
  std::vector<int64_t> offsets;
  while (it.Next(&message)) {
    payloads.push_back(message.payload);
    offsets.push_back(message.offset);
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(payloads, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  // Message ids: increasing but not consecutive — each advances by the
  // previous entry's length (V.B).
  EXPECT_EQ(offsets[0], 1000);
  EXPECT_EQ(offsets[1], 1000 + MessageEntrySize(5));
  EXPECT_EQ(offsets[2], offsets[1] + MessageEntrySize(4));
  EXPECT_EQ(it.next_fetch_offset(), offsets[2] + MessageEntrySize(5));
}

TEST(MessageSetTest, CompressedWrapperRoundTrip) {
  MessageSetBuilder builder(CompressionCodec::kDeflate);
  for (int i = 0; i < 50; ++i) {
    builder.Add("event payload number " + std::to_string(i));
  }
  const std::string set = builder.Build();
  auto count = CountMessages(set);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), 50);

  // The compressed wrapper must be smaller than the plain encoding.
  MessageSetBuilder plain;
  for (int i = 0; i < 50; ++i) {
    plain.Add("event payload number " + std::to_string(i));
  }
  EXPECT_LT(set.size(), plain.Build().size());
}

TEST(MessageSetTest, CompressedOffsetAdvancesAtWrapperBoundary) {
  MessageSetBuilder builder(CompressionCodec::kDeflate);
  builder.Add("a");
  builder.Add("b");
  const std::string set = builder.Build();
  MessageSetIterator it(set, 500);
  Message message;
  ASSERT_TRUE(it.Next(&message));
  EXPECT_EQ(message.offset, 500);  // inner messages share the wrapper offset
  ASSERT_TRUE(it.Next(&message));
  EXPECT_EQ(message.offset, 500);
  EXPECT_FALSE(it.Next(&message));
  EXPECT_EQ(it.next_fetch_offset(), 500 + static_cast<int64_t>(set.size()));
}

TEST(MessageSetTest, CorruptCrcDetected) {
  MessageSetBuilder builder;
  builder.Add("payload");
  std::string set = builder.Build();
  set[set.size() - 1] ^= 0x1;  // flip a payload bit
  MessageSetIterator it(set, 0);
  Message message;
  EXPECT_FALSE(it.Next(&message));
  EXPECT_FALSE(it.status().ok());
}

TEST(MessageSetTest, PartialTrailingEntryIgnored) {
  MessageSetBuilder builder;
  builder.Add("one");
  builder.Add("two");
  const std::string set = builder.Build();
  // Truncate mid-second-entry: the iterator delivers the first message and
  // stops cleanly (consumer re-fetches from next_fetch_offset).
  Slice partial(set.data(), set.size() - 3);
  MessageSetIterator it(partial, 0);
  Message message;
  ASSERT_TRUE(it.Next(&message));
  EXPECT_EQ(message.payload, "one");
  EXPECT_FALSE(it.Next(&message));
  EXPECT_TRUE(it.status().ok());
  EXPECT_EQ(it.next_fetch_offset(), MessageEntrySize(3));
}

TEST(MessageSetTest, CountMessagesRejectsPartialTrailingEntry) {
  MessageSetBuilder builder;
  builder.Add("one");
  builder.Add("two");
  const std::string set = builder.Build();
  auto whole = CountMessages(set);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole.value(), 2);
  // The iterator stops cleanly before a partial entry (a fetch may end
  // there); a produce request that does is torn and must not be counted.
  for (size_t cut = 1; cut < static_cast<size_t>(MessageEntrySize(3)); ++cut) {
    auto torn = CountMessages(Slice(set.data(), set.size() - cut));
    EXPECT_EQ(torn.status().code(), Code::kCorruption) << "cut " << cut;
  }
  auto empty = CountMessages(Slice());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), 0);
}

// ---------------------------------------------------------------------------
// Partition log
// ---------------------------------------------------------------------------

/// A deflate stream of a valid message set: `count` entries, each carrying
/// `payload` zero bytes, built without holding them. The shape of a
/// decompression bomb: 64 entries of 1 MiB deflate to about 65 KB.
std::string DeflatedEntries(int count, size_t payload) {
  static const std::string zeros(64 << 10, '\0');
  uint32_t crc = 0;
  for (size_t left = payload; left > 0;) {
    const size_t take = std::min(left, zeros.size());
    crc = Crc32Extend(crc, Slice(zeros.data(), take));
    left -= take;
  }
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(payload + 5));
  header.push_back(static_cast<char>(CompressionCodec::kNone));
  PutFixed32(&header, crc);

  z_stream stream{};
  EXPECT_EQ(deflateInit(&stream, Z_BEST_COMPRESSION), Z_OK);
  std::string out;
  char buffer[16 << 10];
  const auto feed = [&](Slice in, int flush) {
    stream.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(in.data()));
    stream.avail_in = static_cast<uInt>(in.size());
    do {
      stream.next_out = reinterpret_cast<Bytef*>(buffer);
      stream.avail_out = sizeof(buffer);
      deflate(&stream, flush);
      out.append(buffer, sizeof(buffer) - stream.avail_out);
    } while (stream.avail_out == 0);
  };
  for (int i = 0; i < count; ++i) {
    feed(header, Z_NO_FLUSH);
    for (size_t left = payload; left > 0;) {
      const size_t take = std::min(left, zeros.size());
      feed(Slice(zeros.data(), take), Z_NO_FLUSH);
      left -= take;
    }
  }
  feed(Slice(), Z_FINISH);
  deflateEnd(&stream);
  return out;
}

/// One deflate wrapper entry around `compressed`, with a valid CRC.
std::string Wrapper(Slice compressed) {
  std::string entry;
  AppendMessageEntry(compressed, CompressionCodec::kDeflate, &entry);
  return entry;
}

/// Offsets of the entries a set's length prefixes chain through.
std::vector<size_t> EntryStarts(const std::string& set) {
  std::vector<size_t> starts;
  size_t pos = 0;
  while (pos + 4 <= set.size()) {
    starts.push_back(pos);
    pos += 4 + DecodeFixed32(set.data() + pos);
  }
  return starts;
}

/// Damages `bytes` in place: a truncation, flipped bytes, or a length
/// prefix rewritten (2^32-1, a tiny value, or a random one).
void Damage(Random* rng, std::string* bytes) {
  if (bytes->empty()) return;
  switch (rng->Uniform(3)) {
    case 0:
      bytes->resize(rng->Uniform(bytes->size()));
      break;
    case 1:
      for (uint64_t n = 1 + rng->Uniform(8); n > 0; --n) {
        (*bytes)[rng->Uniform(bytes->size())] ^=
            static_cast<char>(1 + rng->Uniform(255));
      }
      break;
    default: {
      const std::vector<size_t> starts = EntryStarts(*bytes);
      if (starts.empty()) return;
      const uint32_t lengths[] = {0xffffffffu, 0, 4, 5,
                                  static_cast<uint32_t>(rng->Next())};
      EncodeFixed32(bytes->data() + starts[rng->Uniform(starts.size())],
                    lengths[rng->Uniform(5)]);
      break;
    }
  }
}

// Seeded mutation harness for Kafka message sets: a set of plain entries
// and deflate wrappers, then one mutation (a truncation, flipped bytes, a
// length prefix rewritten up to 2^32-1, an attributes byte rewritten, a
// wrapper whose deflate stream is damaged, a wrapper whose inner set is
// damaged, or, every 50th seed, a wrapper of whole entries inflating past
// the cap). For every mutant: CountMessages is Corruption or counts exactly the
// messages the iterator yields; every view lies inside the input, or is a
// whole inner entry of its wrapper's inflation, which stays within the cap;
// and the iterator ends OK only at an entry boundary with no whole entry
// after it. Replay one seed with LIDI_KAFKA_MSGSET_SEED=<seed>.
TEST(MessageSetTest, SeededMutationsStayInsideTheInputAndTheCap) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LIDI_KAFKA_MSGSET_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 500; ++seed) seeds.push_back(seed);
  }
  // 16 entries of 1 MiB: a valid set, 144 bytes past the cap.
  const std::string bomb = Wrapper(DeflatedEntries(16, 1 << 20));
  for (uint64_t seed : seeds) {
    const std::string seed_text = std::to_string(seed);
    SCOPED_TRACE("seed=" + seed_text + " (replay: LIDI_KAFKA_MSGSET_SEED=" +
                 seed_text + ")");
    Random rng(seed);
    std::string set;
    for (uint64_t n = 1 + rng.Uniform(6); n > 0; --n) {
      if (rng.Bernoulli(0.4)) {
        MessageSetBuilder inner(CompressionCodec::kDeflate);
        for (uint64_t k = 1 + rng.Uniform(4); k > 0; --k) {
          inner.Add(rng.Bytes(rng.Uniform(30)));
        }
        set += inner.Build();
      } else {
        AppendMessageEntry(rng.Bytes(rng.Uniform(40)), CompressionCodec::kNone,
                           &set);
      }
    }
    const std::vector<size_t> starts = EntryStarts(set);
    std::string mutant = set;
    const uint64_t kind = seed % 50 == 0 ? 6 : rng.Uniform(6);
    switch (kind) {
      case 0:  // truncation
        mutant.resize(rng.Uniform(mutant.size()));
        break;
      case 1:  // flipped bytes
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          mutant[rng.Uniform(mutant.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        break;
      case 2:  // a length prefix rewritten
        EncodeFixed32(mutant.data() + starts[rng.Uniform(starts.size())],
                      rng.Bernoulli(0.5) ? 0xffffffffu
                                         : static_cast<uint32_t>(rng.Next()));
        break;
      case 3:  // an attributes byte rewritten
        mutant[starts[rng.Uniform(starts.size())] + 4] =
            static_cast<char>(rng.Uniform(256));
        break;
      case 4:    // a wrapper whose deflate stream is damaged
      case 5: {  // a wrapper whose inner set is damaged
        std::string inner;
        for (uint64_t k = 1 + rng.Uniform(4); k > 0; --k) {
          AppendMessageEntry(rng.Bytes(rng.Uniform(30)),
                             CompressionCodec::kNone, &inner);
        }
        std::string compressed;
        if (kind == 5) Damage(&rng, &inner);
        ASSERT_OK(Compress(CompressionCodec::kDeflate, inner, &compressed));
        if (kind == 4) Damage(&rng, &compressed);
        const size_t at = starts[rng.Uniform(starts.size())];
        mutant.insert(at, Wrapper(compressed));
        break;
      }
      default:  // a wrapper inflating one byte past the cap
        mutant.insert(starts[rng.Uniform(starts.size())], bomb);
        break;
    }

    const Slice input(mutant);
    const auto count = CountMessages(input);
    MessageSetIterator it(input, 0);
    MessageView view;
    int64_t views = 0;
    int64_t wrapper = -1;  // offset of the wrapper the last view came from
    std::string inflated;  // its reference inflation
    size_t inner_pos = 0;  // where its next inner entry starts
    while (it.NextView(&view)) {
      ++views;
      if (view.offset != wrapper && wrapper >= 0) {
        ASSERT_EQ(inner_pos, inflated.size()) << "wrapper left half read";
        wrapper = -1;
      }
      const char* p = view.payload.data();
      if (p >= input.data() && p <= input.data() + input.size()) {
        // A plain entry: its payload, 9 bytes into the entry.
        ASSERT_EQ(p, input.data() + view.offset + 9);
        ASSERT_LE(view.offset + 9 + static_cast<int64_t>(view.payload.size()),
                  static_cast<int64_t>(input.size()));
        continue;
      }
      if (wrapper < 0) {
        wrapper = view.offset;
        ASSERT_LE(wrapper + 9, static_cast<int64_t>(input.size()));
        const uint32_t length = DecodeFixed32(input.data() + wrapper);
        ASSERT_LE(wrapper + 4 + static_cast<int64_t>(length),
                  static_cast<int64_t>(input.size()));
        inflated.clear();
        inner_pos = 0;
        ASSERT_OK(Decompress(CompressionCodec::kDeflate,
                             Slice(input.data() + wrapper + 9, length - 5),
                             &inflated));
        ASSERT_LE(inflated.size(), kMaxDecompressedBytes);
      }
      // The next whole inner entry of the wrapper's inflation.
      ASSERT_LE(inner_pos + 9 + view.payload.size(), inflated.size());
      ASSERT_EQ(DecodeFixed32(inflated.data() + inner_pos),
                view.payload.size() + 5);
      ASSERT_EQ(std::memcmp(p, inflated.data() + inner_pos + 9,
                            view.payload.size()),
                0);
      inner_pos += 9 + view.payload.size();
    }
    const int64_t size = static_cast<int64_t>(input.size());
    const int64_t end = it.next_fetch_offset();
    ASSERT_LE(end, size);
    if (it.status().ok()) {
      if (wrapper >= 0) {
        EXPECT_EQ(inner_pos, inflated.size());
      }
      // Stopped at an entry boundary, with no whole entry after it.
      const int64_t rest = size - end;
      EXPECT_TRUE(rest < 4 ||
                  4 + static_cast<int64_t>(DecodeFixed32(input.data() + end)) >
                      rest);
    } else {
      EXPECT_EQ(it.status().code(), Code::kCorruption)
          << it.status().ToString();
    }
    if (count.ok()) {
      EXPECT_TRUE(it.status().ok());
      EXPECT_EQ(count.value(), views);
      EXPECT_EQ(end, size);
    } else {
      EXPECT_EQ(count.status().code(), Code::kCorruption)
          << count.status().ToString();
    }
    if (kind == 6) {
      EXPECT_FALSE(count.ok()) << "the bomb inflated";
    }
  }
}

class LogTest : public ::testing::Test {
 protected:
  std::string OneMessageSet(const std::string& payload) {
    MessageSetBuilder builder;
    builder.Add(payload);
    return builder.Build();
  }

  ManualClock clock_;
};

TEST_F(LogTest, AppendAssignsByteOffsets) {
  PartitionLog log(LogOptions{}, &clock_);
  const std::string set = OneMessageSet("hello");
  EXPECT_EQ(log.Append(set, 1), 0);
  EXPECT_EQ(log.Append(set, 1), static_cast<int64_t>(set.size()));
  EXPECT_EQ(log.end_offset(), 2 * static_cast<int64_t>(set.size()));
}

TEST_F(LogTest, FlushPolicyByMessageCount) {
  LogOptions options;
  options.flush_interval_messages = 3;
  options.flush_interval_ms = 1 << 30;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet("x");
  log.Append(set, 1);
  log.Append(set, 1);
  // Two unflushed messages: not yet visible.
  EXPECT_EQ(log.flushed_end_offset(), 0);
  auto r = log.Read(0, 1 << 20);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  log.Append(set, 1);  // third message triggers the flush
  EXPECT_EQ(log.flushed_end_offset(), 3 * static_cast<int64_t>(set.size()));
  EXPECT_FALSE(log.Read(0, 1 << 20).value().empty());
}

TEST_F(LogTest, FlushPolicyByTime) {
  LogOptions options;
  options.flush_interval_messages = 1000;
  options.flush_interval_ms = 50;
  PartitionLog log(options, &clock_);
  log.Append(OneMessageSet("x"), 1);
  EXPECT_EQ(log.flushed_end_offset(), 0);
  clock_.AdvanceMillis(60);
  log.Append(OneMessageSet("y"), 1);  // append notices the elapsed timer
  EXPECT_GT(log.flushed_end_offset(), 0);
}

TEST_F(LogTest, ReadTruncatesAtEntryBoundaries) {
  PartitionLog log(LogOptions{}, &clock_);
  const std::string set = OneMessageSet("0123456789");  // 19 bytes
  for (int i = 0; i < 5; ++i) log.Append(set, 1);
  log.Flush();
  // Ask for 2.5 entries worth of bytes: get exactly 2 entries.
  auto r = log.Read(0, static_cast<int64_t>(set.size() * 5 / 2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2 * set.size());
  // Reading from the boundary of entry 2 works.
  auto r2 = log.Read(2 * static_cast<int64_t>(set.size()), 1 << 20);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().size(), 3 * set.size());
}

TEST_F(LogTest, ReadAlwaysReturnsAtLeastOneEntry) {
  PartitionLog log(LogOptions{}, &clock_);
  const std::string set = OneMessageSet(std::string(1000, 'x'));
  log.Append(set, 1);
  log.Flush();
  auto r = log.Read(0, 10);  // max_bytes smaller than one entry
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), set.size());
}

TEST_F(LogTest, SegmentsRollAtConfiguredSize) {
  LogOptions options;
  options.segment_bytes = 100;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet(std::string(40, 'x'));
  for (int i = 0; i < 10; ++i) log.Append(set, 1);
  EXPECT_GT(log.segment_count(), 2);
  log.Flush();
  // All offsets remain readable across segments.
  int64_t offset = 0;
  int messages = 0;
  while (offset < log.flushed_end_offset()) {
    auto r = log.Read(offset, 1 << 20);
    ASSERT_TRUE(r.ok()) << offset;
    ASSERT_FALSE(r.value().empty());
    MessageSetIterator it(r.value(), offset);
    Message m;
    while (it.Next(&m)) ++messages;
    offset = it.next_fetch_offset();
  }
  EXPECT_EQ(messages, 10);
}

TEST_F(LogTest, TimeBasedRetentionDeletesOldSegments) {
  LogOptions options;
  options.segment_bytes = 100;
  options.retention_ms = 1000;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet(std::string(40, 'x'));
  for (int i = 0; i < 6; ++i) log.Append(set, 1);
  log.Flush();
  clock_.AdvanceMillis(2000);
  // New data in a fresh window.
  for (int i = 0; i < 2; ++i) log.Append(set, 1);
  log.Flush();
  const int deleted = log.DeleteExpiredSegments();
  EXPECT_GT(deleted, 0);
  EXPECT_GT(log.start_offset(), 0);
  // Old offsets now fail NotFound; fresh data is still readable.
  EXPECT_TRUE(log.Read(0, 1024).status().IsNotFound());
  EXPECT_TRUE(log.Read(log.start_offset(), 1024).ok());
}

TEST_F(LogTest, RewindReadIsRepeatable) {
  PartitionLog log(LogOptions{}, &clock_);
  const std::string set = OneMessageSet("replayable");
  log.Append(set, 1);
  log.Flush();
  auto first = log.Read(0, 1 << 20);
  auto again = log.Read(0, 1 << 20);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first.value(), again.value());
}

TEST_F(LogTest, MisalignedOffsetCaughtAtIteration) {
  // As in Kafka, a fetch from a non-boundary offset is detected when the
  // consumer iterates the bytes: the CRC of the garbage "entry" fails (or no
  // complete entry parses). Either way no bogus message is delivered.
  PartitionLog log(LogOptions{}, &clock_);
  log.Append(OneMessageSet("abcdefgh"), 1);
  log.Flush();
  auto r = log.Read(1, 1024);
  if (r.ok() && !r.value().empty()) {
    MessageSetIterator it(r.value(), 1);
    Message message;
    bool delivered_garbage = false;
    while (it.Next(&message)) delivered_garbage = true;
    EXPECT_TRUE(!delivered_garbage || !it.status().ok());
  }
}

TEST_F(LogTest, ReadAtEverySegmentBoundary) {
  LogOptions options;
  options.segment_bytes = 100;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet(std::string(40, 'x'));
  for (int i = 0; i < 10; ++i) log.Append(set, 1);
  log.Flush();
  ASSERT_GT(log.segment_count(), 2);
  // Every entry boundary — including the ones where a fresh segment starts —
  // serves a read, and the pinned and copying paths agree byte for byte.
  const int64_t entry = static_cast<int64_t>(set.size());
  for (int64_t offset = 0; offset < log.flushed_end_offset();
       offset += entry) {
    auto pinned = log.ReadPinned(offset, 2 * entry);
    auto copied = log.Read(offset, 2 * entry);
    ASSERT_TRUE(pinned.ok()) << offset;
    ASSERT_TRUE(copied.ok()) << offset;
    EXPECT_EQ(pinned.value().ToString(), copied.value()) << offset;
    EXPECT_FALSE(pinned.value().empty()) << offset;
  }
  // The frontier itself: readable, empty — "nothing new yet", not an error.
  auto at_end = log.ReadPinned(log.flushed_end_offset(), 1024);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end.value().empty());
  // Past the log entirely: InvalidArgument.
  EXPECT_FALSE(log.ReadPinned(log.end_offset() + 1, 1024).ok());
}

TEST_F(LogTest, ReadStopsAtFlushedFrontier) {
  LogOptions options;
  options.flush_interval_messages = 1 << 20;  // manual flushes only
  options.flush_interval_ms = 1 << 30;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet("frontier");
  log.Append(set, 1);
  log.Append(set, 1);
  log.Flush();
  log.Append(set, 1);  // unflushed tail beyond the frontier
  ASSERT_EQ(log.flushed_end_offset(), 2 * static_cast<int64_t>(set.size()));
  ASSERT_EQ(log.end_offset(), 3 * static_cast<int64_t>(set.size()));
  // A read straddling the frontier returns only the flushed prefix, however
  // much budget remains.
  auto r = log.ReadPinned(0, 1 << 20);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2 * set.size());
  // At the frontier: empty, and the unflushed entry is invisible until...
  auto at_frontier = log.ReadPinned(2 * static_cast<int64_t>(set.size()), 64);
  ASSERT_TRUE(at_frontier.ok());
  EXPECT_TRUE(at_frontier.value().empty());
  log.Flush();  // ...now it is.
  auto after = log.ReadPinned(2 * static_cast<int64_t>(set.size()), 64);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), set.size());
}

TEST_F(LogTest, PinnedSliceSurvivesRetentionMidRead) {
  LogOptions options;
  options.segment_bytes = 100;
  options.retention_ms = 1000;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet(std::string(40, 'y'));
  for (int i = 0; i < 4; ++i) log.Append(set, 1);
  log.Flush();
  auto pinned = log.ReadPinned(0, 1 << 20);
  ASSERT_TRUE(pinned.ok());
  const std::string before = pinned.value().ToString();
  ASSERT_FALSE(before.empty());

  // The janitor fires between a consumer's fetch and its decode: the offset
  // is gone, the bytes the consumer already holds are not.
  clock_.AdvanceMillis(2000);
  log.Append(set, 1);
  log.Flush();
  ASSERT_GT(log.DeleteExpiredSegments(), 0);
  EXPECT_TRUE(log.ReadPinned(0, 1024).status().IsNotFound());
  EXPECT_EQ(pinned.value().ToString(), before);
  MessageSetIterator it(pinned.value().slice(), 0);
  Message m;
  int decoded = 0;
  while (it.Next(&m)) ++decoded;
  EXPECT_TRUE(it.status().ok());
  EXPECT_GT(decoded, 0);
}

TEST_F(LogTest, ReadPinnedReportsGatheredBytes) {
  // Flush-per-append with tiny segments forces multi-chunk layouts; a read
  // served by one chunk gathers nothing, a straddling read reports the
  // bytes it had to concatenate.
  LogOptions options;
  options.segment_bytes = 100;
  PartitionLog log(options, &clock_);
  const std::string set = OneMessageSet(std::string(40, 'z'));
  for (int i = 0; i < 6; ++i) log.Append(set, 1);
  log.Flush();
  int64_t gathered = -1;
  auto one = log.ReadPinned(0, 1, &gathered);  // single entry: one chunk
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().size(), set.size());
  EXPECT_EQ(gathered, 0);
  auto all = log.ReadPinned(0, 1 << 20, &gathered);  // spans segments
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 6 * set.size());
  EXPECT_EQ(gathered, static_cast<int64_t>(all.value().size()));
}

// A file-backed log reads its rolled segments back from their files. Every
// read, including one that crosses from a rolled segment into the active
// one, returns the bytes the in-memory log returns, and a read that copies
// out of a file reports those bytes as gathered.
TEST_F(LogTest, RolledSegmentReadsMatchTheInMemoryLog) {
  auto fs = io::NewMemFs();
  LogOptions in_memory;
  in_memory.segment_bytes = 100;
  LogOptions on_file = in_memory;
  on_file.data_dir = "/p0";
  on_file.fs = fs.get();
  PartitionLog file_log(on_file, &clock_);
  PartitionLog memory_log(in_memory, &clock_);
  Random rng(7);
  std::vector<int64_t> offsets;
  for (int i = 0; i < 24; ++i) {
    const std::string set = OneMessageSet(rng.Bytes(1 + rng.Uniform(40)));
    offsets.push_back(file_log.Append(set, 1));
    ASSERT_EQ(memory_log.Append(set, 1), offsets.back());
  }
  auto names = fs->ListDir("/p0");
  ASSERT_OK(names);
  ASSERT_GT(names.value().size(), 3u);
  const int64_t active_base = std::atoll(names.value().back().c_str());
  for (int64_t offset : offsets) {
    for (int64_t budget : {int64_t{1}, int64_t{60}, int64_t{150},
                           int64_t{1} << 20}) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " budget " +
                   std::to_string(budget));
      int64_t gathered = -1;
      auto from_file = file_log.ReadPinned(offset, budget, &gathered);
      auto from_memory = memory_log.ReadPinned(offset, budget);
      ASSERT_OK(from_file);
      ASSERT_OK(from_memory);
      EXPECT_EQ(from_file.value().ToString(), from_memory.value().ToString());
      if (offset < active_base) {
        EXPECT_EQ(gathered, static_cast<int64_t>(from_file.value().size()));
      }
    }
  }
}

// In persistent mode the log's memory is its active segment: appends to a
// MemFs-backed log with small segments retain at most one segment plus one
// append, also after a reopen, while the in-memory log retains every byte.
// The test counts bytes, not RSS, so its bound is exact.
TEST_F(LogTest, FileBackedLogRetainsOnlyTheActiveSegment) {
  constexpr int64_t kSegment = 256;
  auto fs = io::NewMemFs();
  LogOptions in_memory;
  in_memory.segment_bytes = kSegment;
  LogOptions on_file = in_memory;
  on_file.data_dir = "/p0";
  on_file.fs = fs.get();
  Random rng(11);
  int64_t largest = 0;
  {
    PartitionLog file_log(on_file, &clock_);
    PartitionLog memory_log(in_memory, &clock_);
    EXPECT_EQ(file_log.retained_bytes(), 0);
    for (int i = 0; i < 200; ++i) {
      const std::string set = OneMessageSet(rng.Bytes(1 + rng.Uniform(60)));
      largest = std::max(largest, static_cast<int64_t>(set.size()));
      file_log.Append(set, 1);
      memory_log.Append(set, 1);
      ASSERT_LT(file_log.retained_bytes(), kSegment + largest) << i;
      ASSERT_EQ(memory_log.retained_bytes(), memory_log.end_offset()) << i;
    }
    ASSERT_GT(file_log.segment_count(), 10);
  }
  PartitionLog reopened(on_file, &clock_);
  EXPECT_GT(reopened.retained_bytes(), 0);
  EXPECT_LT(reopened.retained_bytes(), kSegment + largest);
}

// ---------------------------------------------------------------------------
// Cluster fixture
// ---------------------------------------------------------------------------

class KafkaClusterTest : public ::testing::Test {
 protected:
  static constexpr int kBrokers = 2;
  static constexpr int kPartitionsPerBroker = 2;

  void StartCluster(BrokerOptions options = {}) {
    options.log.flush_interval_messages = 1;  // immediate visibility
    for (int i = 0; i < kBrokers; ++i) {
      brokers_.push_back(
          std::make_unique<Broker>(i, &zk_, &network_, &clock_, options));
      ASSERT_OK(brokers_.back()->CreateTopic("activity", kPartitionsPerBroker));
    }
  }

  ManualClock clock_;
  zk::ZooKeeper zk_;
  net::Network network_;
  std::vector<std::unique_ptr<Broker>> brokers_;
};

TEST_F(KafkaClusterTest, ProduceAndConsumeEndToEnd) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.Send("activity", "event-" + std::to_string(i)).ok());
  }
  Consumer consumer("c1", "group1", &zk_, &network_);
  ASSERT_TRUE(consumer.Subscribe("activity").ok());
  EXPECT_EQ(consumer.OwnedPartitions("activity").size(),
            static_cast<size_t>(kBrokers * kPartitionsPerBroker));

  std::multiset<std::string> received;
  for (int round = 0; round < 50 && received.size() < 20; ++round) {
    auto messages = consumer.Poll("activity");
    ASSERT_TRUE(messages.ok());
    for (const Message& m : messages.value()) received.insert(m.payload);
  }
  EXPECT_EQ(received.size(), 20u);
  EXPECT_EQ(received.count("event-0"), 1u);
}

TEST_F(KafkaClusterTest, KeyHashPartitioningPreservesKeyOrder) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        producer.Send("activity", "member-42", "evt" + std::to_string(i)).ok());
  }
  // All ten land on the same partition, in order.
  Consumer consumer("c1", "g", &zk_, &network_);
  ASSERT_OK(consumer.Subscribe("activity"));
  std::vector<std::string> received;
  for (int round = 0; round < 50 && received.size() < 10; ++round) {
    auto messages = consumer.Poll("activity");
    ASSERT_TRUE(messages.ok());
    for (const Message& m : messages.value()) received.push_back(m.payload);
  }
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(received[i], "evt" + std::to_string(i));
  }
}

TEST_F(KafkaClusterTest, BatchingAndCompressionDeliverAllMessages) {
  StartCluster();
  ProducerOptions options;
  options.batch_size = 25;
  options.codec = CompressionCodec::kDeflate;
  Producer producer("p1", &zk_, &network_, options);
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(producer.Send("activity", rng.Bytes(200)).ok());
  }
  ASSERT_TRUE(producer.Flush().ok());
  EXPECT_LT(producer.bytes_on_wire(), 100 * 200);  // compression won

  Consumer consumer("c1", "g", &zk_, &network_);
  ASSERT_OK(consumer.Subscribe("activity"));
  int64_t received = 0;
  for (int round = 0; round < 100 && received < 100; ++round) {
    auto messages = consumer.Poll("activity");
    ASSERT_TRUE(messages.ok());
    received += static_cast<int64_t>(messages.value().size());
  }
  EXPECT_EQ(received, 100);
}

TEST_F(KafkaClusterTest, ConsumerGroupsSplitPartitionsExclusively) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(producer.Send("activity", "m" + std::to_string(i)));
  }
  Consumer c1("c1", "g", &zk_, &network_);
  Consumer c2("c2", "g", &zk_, &network_);
  ASSERT_TRUE(c1.Subscribe("activity").ok());
  ASSERT_TRUE(c2.Subscribe("activity").ok());
  // Membership changed after c1's initial rebalance; polls re-rebalance.
  int64_t total = 0;
  for (int round = 0; round < 100 && total < 40; ++round) {
    auto m1 = c1.Poll("activity");
    auto m2 = c2.Poll("activity");
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    total += static_cast<int64_t>(m1.value().size() + m2.value().size());
  }
  EXPECT_EQ(total, 40);

  // Exclusive ownership: the partition sets are disjoint and cover all.
  auto o1 = c1.OwnedPartitions("activity");
  auto o2 = c2.OwnedPartitions("activity");
  EXPECT_EQ(o1.size() + o2.size(),
            static_cast<size_t>(kBrokers * kPartitionsPerBroker));
  for (const auto& tp : o1) {
    EXPECT_EQ(std::find(o2.begin(), o2.end(), tp), o2.end());
  }
  EXPECT_GT(c1.messages_consumed(), 0);
  EXPECT_GT(c2.messages_consumed(), 0);
}

TEST_F(KafkaClusterTest, IndependentGroupsEachGetFullStream) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 15; ++i) ASSERT_OK(producer.Send("activity", "m"));
  Consumer g1("c1", "group-a", &zk_, &network_);
  Consumer g2("c2", "group-b", &zk_, &network_);
  ASSERT_OK(g1.Subscribe("activity"));
  ASSERT_OK(g2.Subscribe("activity"));
  int64_t n1 = 0, n2 = 0;
  for (int round = 0; round < 50; ++round) {
    n1 += static_cast<int64_t>(g1.Poll("activity").value().size());
    n2 += static_cast<int64_t>(g2.Poll("activity").value().size());
  }
  EXPECT_EQ(n1, 15);
  EXPECT_EQ(n2, 15);
}

TEST_F(KafkaClusterTest, ConsumerDepartureTriggersRebalance) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  auto c1 = std::make_unique<Consumer>("c1", "g", &zk_, &network_);
  auto c2 = std::make_unique<Consumer>("c2", "g", &zk_, &network_);
  ASSERT_OK(c1->Subscribe("activity"));
  ASSERT_OK(c2->Subscribe("activity"));
  for (int round = 0; round < 5; ++round) {
    ASSERT_OK(c1->Poll("activity"));
    ASSERT_OK(c2->Poll("activity"));
  }
  ASSERT_LT(c1->OwnedPartitions("activity").size(),
            static_cast<size_t>(kBrokers * kPartitionsPerBroker));

  // c2 leaves; its ephemeral owner nodes vanish; c1 takes everything over.
  c2->Close();
  for (int round = 0; round < 5; ++round) ASSERT_OK(c1->Poll("activity"));
  EXPECT_EQ(c1->OwnedPartitions("activity").size(),
            static_cast<size_t>(kBrokers * kPartitionsPerBroker));

  // And messages still flow.
  for (int i = 0; i < 8; ++i) ASSERT_OK(producer.Send("activity", "x"));
  int64_t got = 0;
  for (int round = 0; round < 50 && got < 8; ++round) {
    got += static_cast<int64_t>(c1->Poll("activity").value().size());
  }
  EXPECT_EQ(got, 8);
}

TEST_F(KafkaClusterTest, OffsetsCommitAndResume) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 10; ++i) ASSERT_OK(producer.Send("activity", "m" + std::to_string(i)));
  {
    Consumer consumer("c1", "g", &zk_, &network_);
    ASSERT_OK(consumer.Subscribe("activity"));
    int64_t got = 0;
    for (int round = 0; round < 50 && got < 10; ++round) {
      got += static_cast<int64_t>(consumer.Poll("activity").value().size());
    }
    ASSERT_EQ(got, 10);
    ASSERT_TRUE(consumer.CommitOffsets().ok());
  }
  // Restarted consumer resumes past the committed messages.
  for (int i = 0; i < 5; ++i) ASSERT_OK(producer.Send("activity", "new" + std::to_string(i)));
  Consumer restarted("c1", "g", &zk_, &network_);
  ASSERT_OK(restarted.Subscribe("activity"));
  std::vector<std::string> received;
  for (int round = 0; round < 50 && received.size() < 5; ++round) {
    auto messages = restarted.Poll("activity");
    ASSERT_TRUE(messages.ok());
    for (auto& m : messages.value()) received.push_back(m.payload);
  }
  ASSERT_EQ(received.size(), 5u);
  for (const std::string& p : received) {
    EXPECT_EQ(p.rfind("new", 0), 0u) << p;
  }
}

TEST_F(KafkaClusterTest, RewindReconsumesMessages) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 6; ++i) ASSERT_OK(producer.Send("activity", "m"));
  Consumer consumer("c1", "g", &zk_, &network_);
  ASSERT_OK(consumer.Subscribe("activity"));
  int64_t got = 0;
  for (int round = 0; round < 50 && got < 6; ++round) {
    got += static_cast<int64_t>(consumer.Poll("activity").value().size());
  }
  ASSERT_EQ(got, 6);
  // Rewind every owned partition to 0 and re-consume: same 6 again.
  for (const auto& tp : consumer.OwnedPartitions("activity")) {
    consumer.Seek("activity", tp, 0);
  }
  int64_t replay = 0;
  for (int round = 0; round < 50 && replay < 6; ++round) {
    replay += static_cast<int64_t>(consumer.Poll("activity").value().size());
  }
  EXPECT_EQ(replay, 6);
}

TEST_F(KafkaClusterTest, TransferModesProduceSameBytes) {
  BrokerOptions sendfile_options;
  sendfile_options.transfer_mode = TransferMode::kSendfile;
  StartCluster(sendfile_options);
  Producer producer("p1", &zk_, &network_);
  ASSERT_OK(producer.Send("activity", "payload"));
  auto direct = brokers_[0]->Fetch("activity", 0, 0, 1 << 20);
  // Whichever broker got the message, compare both paths on it.
  for (auto& broker : brokers_) {
    for (int p = 0; p < kPartitionsPerBroker; ++p) {
      auto data = broker->Fetch("activity", p, 0, 1 << 20);
      ASSERT_TRUE(data.ok());
    }
  }
  EXPECT_GT(network_.metrics()->Snapshot().Value("kafka.fetch.count",
                                                 {{"broker", "0"}}),
            0);
}

TEST_F(KafkaClusterTest, AuditDetectsNoLossPipeline) {
  StartCluster();
  for (auto& broker : brokers_) ASSERT_OK(broker->CreateTopic(kAuditTopic, 1));
  Producer producer("p1", &zk_, &network_);
  ProducerAudit audit("p1", &producer, &clock_, /*window_ms=*/1000);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(producer.Send("activity", "m" + std::to_string(i)).ok());
    audit.RecordProduced("activity");
  }
  clock_.AdvanceMillis(1500);  // close the window
  EXPECT_GT(audit.MaybeEmit(), 0);

  AuditValidator validator;
  Consumer data_consumer("c-data", "g-data", &zk_, &network_);
  ASSERT_OK(data_consumer.Subscribe("activity"));
  for (int round = 0; round < 60; ++round) {
    validator.RecordConsumed(
        "activity",
        static_cast<int64_t>(data_consumer.Poll("activity").value().size()));
  }
  Consumer audit_consumer("c-audit", "g-audit", &zk_, &network_);
  ASSERT_OK(audit_consumer.Subscribe(kAuditTopic));
  for (int round = 0; round < 30; ++round) {
    auto messages = audit_consumer.Poll(kAuditTopic);
    ASSERT_TRUE(messages.ok());
    ASSERT_TRUE(validator.IngestAuditMessages(messages.value()).ok());
  }
  EXPECT_EQ(validator.ProducedCount("activity"), 30);
  EXPECT_EQ(validator.ConsumedCount("activity"), 30);
  EXPECT_TRUE(validator.Validate("activity"));
}

TEST_F(KafkaClusterTest, MirrorReplicatesToOfflineCluster) {
  StartCluster();  // live cluster at /kafka
  // Offline cluster at /kafka-offline (separate broker ids/address space
  // would collide; use distinct ids).
  BrokerOptions offline_options;
  offline_options.zk_root = "/kafka-offline";
  offline_options.log.flush_interval_messages = 1;
  auto offline_broker = std::make_unique<Broker>(100, &zk_, &network_, &clock_,
                                                 offline_options);
  ASSERT_OK(offline_broker->CreateTopic("activity", 2));

  Producer producer("p-live", &zk_, &network_);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(producer.Send("activity", "e" + std::to_string(i)).ok());
  }

  MirrorMaker mirror("mirror", "activity", &zk_, &network_, "/kafka",
                     "/kafka-offline");
  auto pumped = mirror.PumpToHead();
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(pumped.value(), 25);

  ConsumerOptions offline_consumer_options;
  offline_consumer_options.zk_root = "/kafka-offline";
  Consumer analyst("hadoop-load", "etl", &zk_, &network_,
                   offline_consumer_options);
  ASSERT_OK(analyst.Subscribe("activity"));
  int64_t got = 0;
  for (int round = 0; round < 60 && got < 25; ++round) {
    got += static_cast<int64_t>(analyst.Poll("activity").value().size());
  }
  EXPECT_EQ(got, 25);
}

TEST_F(KafkaClusterTest, RetentionExpiryRecoversConsumers) {
  BrokerOptions options;
  options.log.segment_bytes = 200;
  options.log.retention_ms = 1000;
  StartCluster(options);
  Producer producer("p1", &zk_, &network_);
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(producer.Send("activity", "k", std::string(50, 'x')));  // one partition
  }
  clock_.AdvanceMillis(5000);
  int deleted = 0;
  for (auto& broker : brokers_) deleted += broker->EnforceRetention();
  EXPECT_GT(deleted, 0);

  // Fresh data after expiry.
  for (int i = 0; i < 3; ++i) ASSERT_OK(producer.Send("activity", "k", "fresh"));
  Consumer consumer("c1", "g", &zk_, &network_);
  ASSERT_OK(consumer.Subscribe("activity"));
  // Force the consumer to start at offset 0 (now expired) on all partitions.
  for (const auto& tp : consumer.OwnedPartitions("activity")) {
    consumer.Seek("activity", tp, 0);
  }
  int64_t got = 0;
  std::vector<std::string> payloads;
  for (int round = 0; round < 80 && got < 3; ++round) {
    auto messages = consumer.Poll("activity");
    ASSERT_TRUE(messages.ok()) << messages.status().ToString();
    for (auto& m : messages.value()) payloads.push_back(m.payload);
    got = static_cast<int64_t>(payloads.size());
  }
  // The consumer recovered from the expired offset and reached fresh data.
  EXPECT_GE(got, 3);
}

/// A produce request cut short used to be appended as it was: the broker
/// acked it, and every later fetch from the offset where the torn entry
/// began failed "not at an entry boundary", wedging the partition.
TEST_F(KafkaClusterTest, TornProduceIsRejectedAndPartitionStaysUsable) {
  StartCluster();
  Broker& broker = *brokers_[0];
  MessageSetBuilder builder;
  builder.Add("first message");
  builder.Add("second message");
  const std::string set = builder.Build();
  auto torn = broker.Produce("activity", 0, Slice(set.data(), set.size() - 3));
  EXPECT_EQ(torn.status().code(), Code::kCorruption);
  EXPECT_EQ(broker.GetLog("activity", 0)->end_offset(), 0);

  MessageSetBuilder next;
  next.Add("next message");
  auto offset = broker.Produce("activity", 0, next.Build());
  ASSERT_TRUE(offset.ok()) << offset.status().ToString();
  EXPECT_EQ(offset.value(), 0);
  auto fetched = broker.Fetch("activity", 0, 0, 1 << 20);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  MessageSetIterator it(fetched.value(), 0);
  Message message;
  ASSERT_TRUE(it.Next(&message));
  EXPECT_EQ(message.payload, "next message");
  EXPECT_FALSE(it.Next(&message));
  EXPECT_TRUE(it.status().ok());
}

// A produce whose wrapper inflates past the cap is Corruption and appends
// nothing: a valid set of 64 MiB of zero payloads, about 65 KB on the wire.
// The broker used to inflate it in full on the request path, and append it.
TEST_F(KafkaClusterTest, ProduceOfAWrapperInflatingPastTheCapIsCorruption) {
  StartCluster();
  Broker& broker = *brokers_[0];
  const std::string set = Wrapper(DeflatedEntries(64, 1 << 20));
  ASSERT_LT(set.size(), 70000u);
  auto reply = broker.Produce("activity", 0, set);
  EXPECT_EQ(reply.status().code(), Code::kCorruption)
      << reply.status().ToString();
  EXPECT_EQ(broker.GetLog("activity", 0)->end_offset(), 0);
}

// A produce naming a partition outside int is Corruption. The decoder used
// to cast it, so partition 2^32 was appended to partition 0 with an OK reply
// at offset 0.
TEST_F(KafkaClusterTest, ProduceToAPartitionOutsideIntIsCorruption) {
  StartCluster();
  Broker& broker = *brokers_[0];
  MessageSetBuilder builder;
  builder.Add("stray");
  std::string request;
  PutLengthPrefixed(&request, "activity");
  PutVarint64(&request, uint64_t{1} << 32);
  PutLengthPrefixed(&request, builder.Build());
  auto reply =
      network_.Call("client", broker.address(), "kafka.produce", request);
  EXPECT_EQ(reply.status().code(), Code::kCorruption)
      << reply.status().ToString();
  EXPECT_EQ(broker.GetLog("activity", 0)->end_offset(), 0);
}

// Fetch fields wider than their types are Corruption: a partition above
// int, and an offset or max_bytes above int64_t, which used to turn
// negative.
TEST_F(KafkaClusterTest, FetchFieldsOutsideTheirTypesAreCorruption) {
  StartCluster();
  Broker& broker = *brokers_[0];
  MessageSetBuilder builder;
  builder.Add("kept");
  ASSERT_OK(broker.Produce("activity", 0, builder.Build()));
  const uint64_t kPartition = uint64_t{1} << 32;
  const uint64_t kBeyondInt64 = uint64_t{1} << 63;
  const struct {
    uint64_t partition, offset, max_bytes;
  } requests[] = {
      {kPartition, 0, 1 << 20},
      {0, kBeyondInt64, 1 << 20},
      {0, 0, kBeyondInt64},
  };
  for (const auto& fields : requests) {
    std::string request;
    PutLengthPrefixed(&request, "activity");
    PutVarint64(&request, fields.partition);
    PutVarint64(&request, fields.offset);
    PutVarint64(&request, fields.max_bytes);
    auto reply =
        network_.Call("client", broker.address(), "kafka.fetch", request);
    EXPECT_EQ(reply.status().code(), Code::kCorruption)
        << fields.partition << " " << fields.offset << " " << fields.max_bytes
        << ": " << reply.status().ToString();
  }
}

// A fetch whose byte budget is far beyond the log gathers what the log
// holds. ReadPinned used to reserve max_bytes before it gathered across
// chunks, so max_bytes 2^62 threw std::bad_alloc out of the handler.
TEST_F(KafkaClusterTest, FetchWithAHugeByteBudgetGathersOnlyTheLog) {
  StartCluster();
  Broker& broker = *brokers_[0];
  std::string log_bytes;
  for (const char* payload : {"one", "two", "three"}) {
    MessageSetBuilder builder;
    builder.Add(payload);
    const std::string set = builder.Build();
    ASSERT_OK(broker.Produce("activity", 0, set));
    log_bytes += set;
  }
  std::string request;
  EncodeFetchRequest("activity", 0, 0, int64_t{1} << 62, &request);
  auto reply =
      network_.Call("client", broker.address(), "kafka.fetch", request);
  ASSERT_OK(reply);
  EXPECT_EQ(reply.value(), log_bytes);
}

/// Bytes appended to the broker's partitions of "activity".
int64_t BytesOnBroker(Broker& broker, int partitions) {
  int64_t total = 0;
  for (int p = 0; p < partitions; ++p) {
    total += broker.GetLog("activity", p)->end_offset();
  }
  return total;
}

TEST_F(KafkaClusterTest, ProducerSendsToBrokerThatJoinsAfterFirstSend) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  ASSERT_OK(producer.Send("activity", "cached"));  // caches 4 partitions

  BrokerOptions options;
  options.log.flush_interval_messages = 1;
  Broker late(kBrokers, &zk_, &network_, &clock_, options);
  ASSERT_OK(late.CreateTopic("activity", 2));
  auto partitions = producer.PartitionsOf("activity");
  ASSERT_TRUE(partitions.ok());
  const std::vector<TopicPartition>& tps = partitions.value();
  ASSERT_EQ(tps.size(),
            static_cast<size_t>(kBrokers * kPartitionsPerBroker + 2));

  // Keyed: a key that hashes onto the new broker lands there.
  std::string key;
  for (int k = 0; key.empty(); ++k) {
    const std::string candidate = "member-" + std::to_string(k);
    if (tps[Fnv1a64(candidate) % tps.size()].broker_id == kBrokers) {
      key = candidate;
    }
  }
  ASSERT_OK(producer.Send("activity", key, "keyed"));
  const int64_t keyed = BytesOnBroker(late, 2);
  EXPECT_EQ(keyed, MessageEntrySize(5));

  // Random: a third of the partitions are new, so some of 60 sends land
  // there.
  for (int i = 0; i < 60; ++i) ASSERT_OK(producer.Send("activity", "random"));
  EXPECT_GT(BytesOnBroker(late, 2), keyed);
}

TEST_F(KafkaClusterTest, ProducerStopsSendingToBrokerWhoseSessionCloses) {
  StartCluster();
  Producer producer("p1", &zk_, &network_);
  ASSERT_OK(producer.Send("activity", "cached"));  // caches 4 partitions

  // Shutdown closes the broker's session, so its advertisement vanishes;
  // it also unregisters the broker, so a send routed there would fail.
  brokers_[1]->Shutdown();
  auto partitions = producer.PartitionsOf("activity");
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions.value().size(),
            static_cast<size_t>(kPartitionsPerBroker));
  const int64_t departed = BytesOnBroker(*brokers_[1], kPartitionsPerBroker);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(producer.Send("activity", "random"));
    ASSERT_OK(
        producer.Send("activity", "member-" + std::to_string(i), "keyed"));
  }
  EXPECT_EQ(BytesOnBroker(*brokers_[1], kPartitionsPerBroker), departed);

  brokers_[0]->Shutdown();
  EXPECT_TRUE(producer.Send("activity", "orphan").IsNotFound());
  EXPECT_TRUE(producer.Send("activity", "key", "orphan").IsNotFound());
  EXPECT_TRUE(producer.PartitionsOf("activity").status().IsNotFound());
}

/// The producer's watches must die with it: changing the topic's brokers
/// afterwards fires what is left on those znodes, which must not reach a
/// destroyed producer (ASan runs this test through the `codec` label).
TEST_F(KafkaClusterTest, DestroyedProducerLeavesNoWatchBehind) {
  StartCluster();
  {
    Producer producer("p1", &zk_, &network_);
    ASSERT_OK(producer.Send("activity", "m"));
  }
  brokers_[1]->Shutdown();  // deletes an advertisement the producer watched
  BrokerOptions options;
  options.log.flush_interval_messages = 1;
  Broker late(kBrokers, &zk_, &network_, &clock_, options);
  ASSERT_OK(late.CreateTopic("activity", 2));  // adds a child to the topic

  Producer next("p2", &zk_, &network_);
  auto partitions = next.PartitionsOf("activity");
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions.value().size(),
            static_cast<size_t>(kPartitionsPerBroker + 2));
  ASSERT_OK(next.Send("activity", "m"));
}

}  // namespace
}  // namespace lidi::kafka
