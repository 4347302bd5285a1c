#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "databus/bootstrap.h"
#include "databus/client.h"
#include "databus/event.h"
#include "databus/event_buffer.h"
#include "databus/relay.h"
#include "net/network.h"
#include "sqlstore/database.h"

#include "status_test_util.h"

namespace lidi::databus {
namespace {

using sqlstore::Database;
using sqlstore::Row;

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

TEST(EventCodecTest, RoundTrip) {
  Event e;
  e.scn = 42;
  e.source = "profiles";
  e.key = "m1";
  e.op = Event::Op::kDelete;
  e.partition = 7;
  e.end_of_txn = false;
  e.payload = "data";
  std::string buf;
  EncodeEvent(e, &buf);
  Slice in(buf);
  auto decoded = DecodeEvent(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), e);
  EXPECT_TRUE(in.empty());
}

TEST(EventCodecTest, ListRoundTripAndTruncation) {
  std::vector<Event> events(3);
  events[0].scn = 1;
  events[1].scn = 2;
  events[2].scn = 3;
  events[2].payload = std::string(100, 'x');
  std::string buf;
  EncodeEventList(events, &buf);
  auto decoded = DecodeEventList(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), events);
  EXPECT_FALSE(DecodeEventList(Slice(buf.data(), buf.size() - 5)).ok());
}

// The list's count is checked against its input before anything is
// reserved: the six bytes of "varint 2^40" used to reserve 2^40 events and
// throw std::bad_alloc.
TEST(EventCodecTest, ListCountBeyondItsInputIsCorruption) {
  std::string huge;
  PutVarint64(&huge, uint64_t{1} << 40);
  ASSERT_EQ(huge.size(), 6u);
  EXPECT_EQ(DecodeEventList(huge).status().code(), Code::kCorruption);
  // The bound is exact: an event with empty fields encodes in 7 bytes.
  const std::vector<Event> smallest(3);
  std::string buf;
  EncodeEventList(smallest, &buf);
  ASSERT_EQ(buf.size(), 1u + 3 * 7);
  auto decoded = DecodeEventList(buf);
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded.value(), smallest);
  buf[0] = 4;  // one more event than the bytes hold
  EXPECT_EQ(DecodeEventList(buf).status().code(), Code::kCorruption);
}

// An event's op and partition are range-checked as they decode: an op above
// kDelete, or a partition outside int, is Corruption, not a cast value.
std::string RawEvent(uint8_t op, int64_t partition, uint64_t scn = 1) {
  std::string out;
  PutVarint64(&out, scn);
  PutLengthPrefixed(&out, "t");
  PutLengthPrefixed(&out, "k");
  out.push_back(static_cast<char>(op));
  PutZigZag64(&out, partition);
  out.push_back(1);
  PutLengthPrefixed(&out, "");
  return out;
}

Result<Event> DecodeRawEvent(const std::string& bytes) {
  Slice in(bytes);
  return DecodeEvent(&in);
}

TEST(EventCodecTest, OpAboveDeleteIsCorruption) {
  auto upsert = DecodeRawEvent(RawEvent(0, 0));
  ASSERT_OK(upsert);
  EXPECT_EQ(upsert.value().op, Event::Op::kUpsert);
  auto del = DecodeRawEvent(RawEvent(1, 0));
  ASSERT_OK(del);
  EXPECT_EQ(del.value().op, Event::Op::kDelete);
  for (int op : {2, 7, 255}) {
    EXPECT_EQ(DecodeRawEvent(RawEvent(static_cast<uint8_t>(op), 0))
                  .status()
                  .code(),
              Code::kCorruption)
        << op;
  }
  // The list decoder, which every client reply goes through, stops too.
  std::string list;
  PutVarint64(&list, 1);
  list += RawEvent(7, 0);
  EXPECT_EQ(DecodeEventList(list).status().code(), Code::kCorruption);
}

TEST(EventCodecTest, PartitionOutsideIntIsCorruption) {
  constexpr int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  for (int64_t partition : {kIntMin, int64_t{-1}, int64_t{0}, kIntMax}) {
    auto event = DecodeRawEvent(RawEvent(0, partition));
    ASSERT_OK(event);
    EXPECT_EQ(event.value().partition, partition);
  }
  // 2^32 used to arrive as partition 0, and 2^31 as a negative one.
  for (int64_t partition :
       {kIntMax + 1, kIntMin - 1, int64_t{1} << 32,
        std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(DecodeRawEvent(RawEvent(0, partition)).status().code(),
              Code::kCorruption)
        << partition;
  }
}

// The SCN lands in int64_t: 2^63 used to decode as INT64_MIN, and 2^64 - 1
// as -1.
TEST(EventCodecTest, ScnOutsideInt64IsCorruption) {
  constexpr uint64_t kInt64Max = std::numeric_limits<int64_t>::max();
  for (uint64_t scn : {uint64_t{0}, kInt64Max}) {
    auto event = DecodeRawEvent(RawEvent(0, 0, scn));
    ASSERT_OK(event);
    EXPECT_EQ(static_cast<uint64_t>(event.value().scn), scn);
  }
  for (uint64_t scn : {kInt64Max + 1, ~uint64_t{0}}) {
    EXPECT_EQ(DecodeRawEvent(RawEvent(0, 0, scn)).status().code(),
              Code::kCorruption)
        << scn;
    std::string list;
    PutVarint64(&list, 1);
    list += RawEvent(0, 0, scn);
    EXPECT_EQ(DecodeEventList(list).status().code(), Code::kCorruption)
        << scn;
  }
}

bool Inside(Slice slice, const std::string& bytes) {
  const auto begin = reinterpret_cast<uintptr_t>(bytes.data());
  const auto at = reinterpret_cast<uintptr_t>(slice.data());
  return at >= begin && at + slice.size() <= begin + bytes.size();
}

// Seeded mutation harness for the view decoder: a reply of 1 to 8 random
// events, then one damage (a truncation, one to eight flipped bytes, or a
// length prefix or the list's count rewritten). Every mutant decodes to
// Corruption, or to views whose slices all lie inside the reply. Replay one
// seed with LIDI_DATABUS_SEED=<seed>.
TEST(EventCodecTest, SeededMutatedRepliesDecodeInsideTheirBytes) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LIDI_DATABUS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 500; ++seed) seeds.push_back(seed);
  }
  for (uint64_t seed : seeds) {
    const std::string seed_text = std::to_string(seed);
    SCOPED_TRACE("seed=" + seed_text + " (replay: LIDI_DATABUS_SEED=" +
                 seed_text + ")");
    Random rng(seed);
    std::vector<Event> events(1 + rng.Uniform(8));
    int64_t scn = static_cast<int64_t>(rng.Uniform(1000));
    for (Event& event : events) {
      scn += static_cast<int64_t>(rng.Uniform(2));
      event.scn = scn;
      event.source = rng.Bytes(rng.Uniform(8));
      event.key = rng.Bytes(rng.Uniform(16));
      event.op = rng.Uniform(2) == 0 ? Event::Op::kUpsert : Event::Op::kDelete;
      event.partition = static_cast<int>(rng.UniformRange(-1, 100));
      event.end_of_txn = rng.Uniform(2) == 0;
      event.payload = rng.Bytes(rng.Uniform(200));
    }
    std::string reply;
    EncodeEventList(events, &reply);
    std::vector<EventView> views;
    ASSERT_OK(DecodeEventViews(reply, &views));
    ASSERT_EQ(views.size(), events.size());

    std::string bad = reply;
    bool count_beyond_input = false;
    switch (rng.Uniform(3)) {
      case 0:  // cut the reply short
        bad.resize(rng.Uniform(bad.size()));
        break;
      case 1:  // corrupt one to eight bytes
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          bad[rng.Uniform(bad.size())] ^=
              static_cast<char>(1 + rng.Uniform(255));
        }
        break;
      default: {  // rewrite the count or one field's length prefix
        size_t at = 0;
        size_t old_value = views.size();
        const uint64_t field = rng.Uniform(3 * views.size() + 1);
        if (field > 0) {
          const EventView& view = views[(field - 1) / 3];
          const Slice value = (field - 1) % 3 == 0   ? view.source
                              : (field - 1) % 3 == 1 ? view.key
                                                     : view.payload;
          old_value = value.size();
          at = static_cast<size_t>(value.data() - reply.data()) -
               VarintLength(value.size());
        }
        const uint64_t values[] = {0, old_value + 1, rng.Uniform(1 << 20),
                                   uint64_t{1} << 40, ~uint64_t{0}};
        const uint64_t value = values[rng.Uniform(5)];
        std::string varint;
        PutVarint64(&varint, value);
        bad.replace(at, VarintLength(old_value), varint);
        count_beyond_input = field == 0 && value > bad.size();
        break;
      }
    }
    Status s = DecodeEventViews(bad, &views);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();
      EXPECT_TRUE(views.empty());
      continue;
    }
    EXPECT_FALSE(count_beyond_input) << "a count beyond its input decoded";
    for (const EventView& view : views) {
      EXPECT_TRUE(Inside(view.source, bad));
      EXPECT_TRUE(Inside(view.key, bad));
      EXPECT_TRUE(Inside(view.payload, bad));
      EXPECT_TRUE(Inside(view.encoded, bad));
      EXPECT_GE(view.scn, 0);
    }
  }
}

TEST(FilterTest, SourceAndPartitionFilters) {
  Event e;
  e.source = "profiles";
  e.partition = 5;

  Filter none;
  EXPECT_TRUE(none.Matches(e));

  Filter by_source;
  by_source.sources = {"profiles"};
  EXPECT_TRUE(by_source.Matches(e));
  by_source.sources = {"connections"};
  EXPECT_FALSE(by_source.Matches(e));

  Filter by_partition;
  by_partition.mod_base = 4;
  by_partition.mod_residues = {1};  // 5 % 4 == 1
  EXPECT_TRUE(by_partition.Matches(e));
  by_partition.mod_residues = {0};
  EXPECT_FALSE(by_partition.Matches(e));
}

TEST(FilterTest, SerializationRoundTrip) {
  Filter f;
  f.sources = {"a", "b"};
  f.mod_base = 8;
  f.mod_residues = {0, 3, 7};
  std::string buf;
  f.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = Filter::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sources, f.sources);
  EXPECT_EQ(decoded.value().mod_base, f.mod_base);
  EXPECT_EQ(decoded.value().mod_residues, f.mod_residues);
}

// A filter with no sources, `mod_base` and `residues`, as the wire carries it.
std::string RawFilter(uint64_t mod_base,
                      const std::vector<uint64_t>& residues) {
  std::string out;
  PutVarint64(&out, 0);
  PutVarint64(&out, mod_base);
  PutVarint64(&out, residues.size());
  for (uint64_t residue : residues) PutVarint64(&out, residue);
  return out;
}

Result<Filter> DecodeRawFilter(const std::string& bytes) {
  Slice in(bytes);
  return Filter::DecodeFrom(&in);
}

// mod_base and the residues land in int. A mod_base of 2^32 used to arrive as
// 0 and one of 2^31 as a negative number; either way the filter switched off
// and matched every partition.
TEST(FilterTest, ModBaseAndResiduesOutsideIntAreCorruption) {
  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  for (uint64_t mod_base : {kIntMax + 1, uint64_t{1} << 32, ~uint64_t{0}}) {
    EXPECT_EQ(DecodeRawFilter(RawFilter(mod_base, {0})).status().code(),
              Code::kCorruption)
        << mod_base;
  }
  for (uint64_t residue : {kIntMax + 1, uint64_t{1} << 32, ~uint64_t{0}}) {
    EXPECT_EQ(DecodeRawFilter(RawFilter(4, {1, residue})).status().code(),
              Code::kCorruption)
        << residue;
  }
  // The smallest encoding and the largest values in range decode.
  auto off = DecodeRawFilter(RawFilter(0, {}));
  ASSERT_OK(off);
  EXPECT_EQ(off.value().mod_base, 0);
  EXPECT_TRUE(off.value().mod_residues.empty());
  auto widest = DecodeRawFilter(RawFilter(kIntMax, {0, kIntMax}));
  ASSERT_OK(widest);
  EXPECT_EQ(widest.value().mod_base, std::numeric_limits<int>::max());
  EXPECT_EQ(widest.value().mod_residues,
            (std::set<int>{0, std::numeric_limits<int>::max()}));
}

// ---------------------------------------------------------------------------
// Event buffer
// ---------------------------------------------------------------------------

// One transaction of `changes` events at `scn`: keys "<scn>.<i>" on
// partitions 0, 1, 2, ...
std::vector<Event> Txn(int64_t scn, int changes) {
  std::vector<Event> events(changes);
  for (int i = 0; i < changes; ++i) {
    events[i].scn = scn;
    events[i].source = "t";
    events[i].key = std::to_string(scn) + "." + std::to_string(i);
    events[i].partition = i;
    events[i].end_of_txn = i + 1 == changes;
  }
  return events;
}

std::vector<std::string> Keys(const std::vector<Slice>& events) {
  std::vector<std::string> keys;
  for (Slice bytes : events) {
    auto event = DecodeEvent(&bytes);
    EXPECT_OK(event);
    keys.push_back(event.ok() ? event.value().key : "<corrupt>");
  }
  return keys;
}

TEST(EventBufferTest, NotFoundExactlyBelowTheWindow) {
  EventBuffer buffer(4);
  for (int64_t scn = 1; scn <= 6; ++scn) buffer.Append(Txn(scn, 1));
  ASSERT_EQ(buffer.min_scn(), 3);
  std::vector<Slice> matched;
  // scn 2 was evicted: a reader at 1 would miss it.
  EXPECT_TRUE(buffer.Scan(1, 100, Filter{}, &matched).IsNotFound());
  EXPECT_TRUE(matched.empty());
  ASSERT_OK(buffer.Scan(2, 100, Filter{}, &matched));
  EXPECT_EQ(Keys(matched),
            (std::vector<std::string>{"3.0", "4.0", "5.0", "6.0"}));
  matched.clear();
  ASSERT_OK(buffer.Scan(6, 100, Filter{}, &matched));
  EXPECT_TRUE(matched.empty());
}

TEST(EventBufferTest, HighestScnSurvivesTheEvictionOfEveryEvent) {
  EventBuffer buffer(2);
  buffer.Append(Txn(1, 1));
  // Larger than the capacity: evicted whole, after scn 1.
  buffer.Append(Txn(2, 3));
  EXPECT_EQ(buffer.size(), 0);
  EXPECT_EQ(buffer.min_scn(), 0);
  EXPECT_EQ(buffer.max_scn(), 2);
  EXPECT_TRUE(buffer.Read(0, 100, Filter{}).status().IsNotFound());
  EXPECT_TRUE(buffer.Read(1, 100, Filter{}).status().IsNotFound());
  auto head = buffer.Read(2, 100, Filter{});
  ASSERT_OK(head);
  EXPECT_TRUE(head.value().empty());

  buffer.Append(Txn(3, 1));
  EXPECT_TRUE(buffer.Read(1, 100, Filter{}).status().IsNotFound());
  auto next = buffer.Read(2, 100, Filter{});
  ASSERT_OK(next);
  ASSERT_EQ(next.value().size(), 1u);
  EXPECT_EQ(next.value()[0].scn, 3);
}

TEST(EventBufferTest, SetCapacityTrimsWholeTransactions) {
  EventBuffer buffer;
  buffer.Append(Txn(1, 2));
  buffer.Append(Txn(2, 3));
  buffer.Append(Txn(3, 1));
  EXPECT_EQ(buffer.size(), 6);
  // Dropping scn 1 leaves 4 events, still above 3, so scn 2 goes too.
  buffer.SetCapacity(3);
  EXPECT_EQ(buffer.size(), 1);
  EXPECT_EQ(buffer.min_scn(), 3);
  EXPECT_TRUE(buffer.Read(1, 100, Filter{}).status().IsNotFound());
  buffer.SetCapacity(10);
  buffer.Append(Txn(4, 2));
  EXPECT_EQ(buffer.size(), 3);
  EXPECT_EQ(buffer.min_scn(), 3);
}

TEST(EventBufferTest, FilterAndMaxEventsEndAPageWithItsTransaction) {
  EventBuffer buffer;
  for (int64_t scn = 1; scn <= 3; ++scn) buffer.Append(Txn(scn, 4));
  Filter even;
  even.mod_base = 2;
  even.mod_residues = {0};
  std::vector<Slice> matched;
  // The bound is met exactly at the end of scn 1's matches.
  ASSERT_OK(buffer.Scan(0, 2, even, &matched));
  EXPECT_EQ(Keys(matched), (std::vector<std::string>{"1.0", "1.2"}));
  // The third match opens scn 2, so the page takes scn 2's other match.
  matched.clear();
  ASSERT_OK(buffer.Scan(0, 3, even, &matched));
  EXPECT_EQ(Keys(matched),
            (std::vector<std::string>{"1.0", "1.2", "2.0", "2.2"}));
  // Resuming after the last SCN handed out.
  matched.clear();
  ASSERT_OK(buffer.Scan(2, 3, even, &matched));
  EXPECT_EQ(Keys(matched), (std::vector<std::string>{"3.0", "3.2"}));
  matched.clear();
  ASSERT_OK(buffer.Scan(0, 0, even, &matched));
  EXPECT_TRUE(matched.empty());
}

// Retention: the buffer holds its window, not the stream. It counts the
// bytes its blocks and index hold, not RSS, so the test is deterministic.
TEST(EventBufferTest, RetainedBytesFollowTheWindowNotTheStream) {
  constexpr int64_t kCapacity = 2000;
  constexpr int64_t kBlock = static_cast<int64_t>(ByteBlocks::kBlockBytes);
  // Single-change transactions of one shape: ~150 encoded bytes each.
  auto feed = [](EventBuffer* buffer, int64_t events) {
    for (int64_t i = 0; i < events; ++i) {
      Event event;
      event.scn = buffer->max_scn() + 1;
      event.source = "profiles";
      event.key = "member:" + std::to_string(10000 + i % 100);
      event.payload = std::string(120, 'x');
      buffer->Append({event});
    }
  };
  EventBuffer ten(kCapacity);
  EventBuffer forty(kCapacity);
  feed(&ten, 10 * kCapacity);
  feed(&forty, 40 * kCapacity);
  ASSERT_EQ(ten.size(), kCapacity);
  ASSERT_EQ(forty.size(), kCapacity);
  EXPECT_GE(forty.retained_bytes(), kCapacity * 150);
  EXPECT_LE(std::abs(ten.retained_bytes() - forty.retained_bytes()), kBlock);

  // Shrinking frees the blocks the evicted events were in: 100 events
  // (~15 KB) lie in at most two blocks.
  forty.SetCapacity(100);
  EXPECT_EQ(forty.size(), 100);
  EXPECT_LT(forty.retained_bytes(), 3 * kBlock);

  // Emptied by eviction, a buffer keeps at most one block, also after a
  // transaction larger than its capacity.
  ten.Append(Txn(ten.max_scn() + 1, kCapacity + 1));
  EXPECT_EQ(ten.size(), 0);
  EXPECT_LE(ten.retained_bytes(), kBlock);
  feed(&ten, 10);
  EXPECT_EQ(ten.size(), 10);
  EXPECT_LE(ten.retained_bytes(), kBlock + 10 * 64);

  // An event larger than a block gets a block of its own, freed with it.
  EventBuffer big(1);
  Event huge;
  huge.scn = 1;
  huge.payload = std::string(3 * kBlock, 'x');
  big.Append({huge});
  EXPECT_GE(big.retained_bytes(), 3 * kBlock);
  auto read = big.Read(0, 10, Filter{});
  ASSERT_OK(read);
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(read.value()[0], huge);
  big.SetCapacity(0);
  EXPECT_EQ(big.size(), 0);
  EXPECT_LE(big.retained_bytes(), kBlock);
}

// ---------------------------------------------------------------------------
// Relay
// ---------------------------------------------------------------------------

class DatabusTest : public ::testing::Test {
 protected:
  DatabusTest() : db_("member_db") {
    EXPECT_OK(db_.CreateTable("profiles"));
    EXPECT_OK(db_.CreateTable("connections"));
  }

  void WriteProfiles(int from, int count) {
    for (int i = from; i < from + count; ++i) {
      ASSERT_TRUE(db_.Put("profiles", "m" + std::to_string(i),
                          Row{{"name", "member-" + std::to_string(i)}})
                      .ok());
    }
  }

  net::Network network_;
  Database db_;
};

TEST_F(DatabusTest, RelayCapturesCommitOrder) {
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 10);
  auto polled = relay.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), 10);

  auto events = relay.ReadEvents(0, 100, Filter{});
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 10u);
  for (size_t i = 1; i < events.value().size(); ++i) {
    EXPECT_GT(events.value()[i].scn, events.value()[i - 1].scn);
  }
  EXPECT_EQ(events.value()[0].source, "profiles");
}

TEST_F(DatabusTest, RelayServesFromSequenceNumber) {
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 20);
  ASSERT_OK(relay.PollOnce());
  auto events = relay.ReadEvents(15, 100, Filter{});
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 5u);
  EXPECT_EQ(events.value()[0].scn, 16);
}

TEST_F(DatabusTest, RelayTransactionEnvelope) {
  Relay relay("relay-1", &db_, &network_);
  auto txn = db_.Begin();
  txn.Put("profiles", "m1", Row{{"name", "x"}});
  txn.Put("connections", "m1:m2", Row{});
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_OK(relay.PollOnce());
  auto events = relay.ReadEvents(0, 10, Filter{});
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 2u);
  EXPECT_EQ(events.value()[0].scn, events.value()[1].scn);
  EXPECT_FALSE(events.value()[0].end_of_txn);
  EXPECT_TRUE(events.value()[1].end_of_txn);
}

TEST_F(DatabusTest, RelayEvictionForcesBootstrapError) {
  RelayOptions options;
  options.buffer_capacity_events = 5;
  Relay relay("relay-1", &db_, &network_, options);
  WriteProfiles(0, 20);
  ASSERT_OK(relay.PollOnce());
  EXPECT_EQ(relay.buffered_events(), 5);
  EXPECT_EQ(relay.min_buffered_scn(), 16);
  // Reading from the beginning must fail: range evicted.
  EXPECT_TRUE(relay.ReadEvents(0, 100, Filter{}).status().IsNotFound());
  // Reading from within the buffer succeeds.
  EXPECT_TRUE(relay.ReadEvents(16, 100, Filter{}).ok());
}

// A transaction that straddled the capacity used to lose its head and keep
// its tail, and a reader from scn 0 got the tail as if it were whole.
TEST_F(DatabusTest, EvictionDropsWholeTransactions) {
  RelayOptions options;
  options.buffer_capacity_events = 5;
  Relay relay("relay-1", &db_, &network_, options);
  auto txn = db_.Begin();
  for (int i = 0; i < 3; ++i) {
    txn.Put("profiles", "t" + std::to_string(i), Row{{"name", "t"}});
  }
  ASSERT_OK(txn.Commit());
  WriteProfiles(0, 3);
  ASSERT_OK(relay.PollOnce());
  EXPECT_EQ(relay.buffered_events(), 3);
  EXPECT_EQ(relay.min_buffered_scn(), 2);
  EXPECT_TRUE(relay.ReadEvents(0, 100, Filter{}).status().IsNotFound());
  auto events = relay.ReadEvents(1, 100, Filter{});
  ASSERT_OK(events);
  EXPECT_EQ(events.value().size(), 3u);
}

TEST_F(DatabusTest, SetBufferCapacityTrims) {
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 10);
  ASSERT_OK(relay.PollOnce());
  relay.SetBufferCapacity(4);
  EXPECT_EQ(relay.buffered_events(), 4);
  EXPECT_EQ(relay.min_buffered_scn(), 7);
  EXPECT_EQ(relay.max_buffered_scn(), 10);
  EXPECT_TRUE(relay.ReadEvents(5, 100, Filter{}).status().IsNotFound());
  EXPECT_OK(relay.ReadEvents(6, 100, Filter{}));
}

// A transaction larger than the whole buffer is evicted on arrival; the
// relay still pulls on from after it instead of from scn 0 again.
TEST_F(DatabusTest, RelayPullsOnAfterEvictingEveryEvent) {
  RelayOptions options;
  options.buffer_capacity_events = 2;
  Relay relay("relay-1", &db_, &network_, options);
  auto txn = db_.Begin();
  for (int i = 0; i < 3; ++i) {
    txn.Put("profiles", "t" + std::to_string(i), Row{});
  }
  ASSERT_OK(txn.Commit());
  auto polled = relay.PollOnce();
  ASSERT_OK(polled);
  EXPECT_EQ(polled.value(), 3);
  EXPECT_EQ(relay.buffered_events(), 0);
  EXPECT_EQ(relay.max_buffered_scn(), 0);
  EXPECT_TRUE(relay.ReadEvents(0, 100, Filter{}).status().IsNotFound());
  polled = relay.PollOnce();
  ASSERT_OK(polled);
  EXPECT_EQ(polled.value(), 0);
  WriteProfiles(0, 1);
  ASSERT_OK(relay.PollOnce());
  auto events = relay.ReadEvents(1, 100, Filter{});
  ASSERT_OK(events);
  ASSERT_EQ(events.value().size(), 1u);
  EXPECT_EQ(events.value()[0].scn, 2);
}

TEST_F(DatabusTest, ReadRequestRejectsOutOfRangeScn) {
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 5);
  ASSERT_OK(relay.PollOnce());
  auto read = [&](uint64_t since_scn, uint64_t max_events) {
    std::string request;
    PutVarint64(&request, since_scn);
    PutVarint64(&request, max_events);
    Filter{}.EncodeTo(&request);
    return network_.Call("client", "relay-1", "databus.read", request);
  };
  constexpr uint64_t kInt64Max = std::numeric_limits<int64_t>::max();
  // since_scn + 1 would overflow; 2^64 - 1 would arrive as SCN -1.
  EXPECT_EQ(read(kInt64Max, 10).status().code(), Code::kCorruption);
  EXPECT_EQ(read(~uint64_t{0}, 10).status().code(), Code::kCorruption);
  // 2^63 events would arrive as a negative count.
  EXPECT_EQ(read(0, kInt64Max + 1).status().code(), Code::kCorruption);
  // The largest values in range are served.
  ASSERT_OK(read(kInt64Max - 1, kInt64Max));
  auto all = read(0, kInt64Max);
  ASSERT_OK(all);
  auto events = DecodeEventList(all.value());
  ASSERT_OK(events);
  EXPECT_EQ(events.value().size(), 5u);
}

TEST_F(DatabusTest, ReadRequestRejectsOutOfRangeFilter) {
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 5);  // unpartitioned: every event has residue 0
  ASSERT_OK(relay.PollOnce());
  auto read = [&](uint64_t mod_base, uint64_t residue) {
    std::string request;
    PutVarint64(&request, 0);
    PutVarint64(&request, 100);
    request += RawFilter(mod_base, {residue});
    return network_.Call("client", "relay-1", "databus.read", request);
  };
  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  // Residue 1 of 2^32 used to be served as an unfiltered read: all 5 events.
  EXPECT_EQ(read(uint64_t{1} << 32, 1).status().code(), Code::kCorruption);
  EXPECT_EQ(read(kIntMax + 1, 1).status().code(), Code::kCorruption);
  EXPECT_EQ(read(4, uint64_t{1} << 32).status().code(), Code::kCorruption);
  // The largest values in range are served, and filter.
  for (uint64_t residue : {uint64_t{0}, uint64_t{1}, kIntMax}) {
    auto reply = read(kIntMax, residue);
    ASSERT_OK(reply);
    auto events = DecodeEventList(reply.value());
    ASSERT_OK(events);
    EXPECT_EQ(events.value().size(), residue == 0 ? 5u : 0u) << residue;
  }
}

TEST_F(DatabusTest, RelayServerSideFiltering) {
  db_.SetPartitionFunction([](Slice key) {
    return key.empty() ? 0 : (key[key.size() - 1] - '0') % 4;
  });
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 8);  // keys m0..m7, partitions 0..3
  ASSERT_OK(relay.PollOnce());
  Filter f;
  f.mod_base = 4;
  f.mod_residues = {2};
  auto events = relay.ReadEvents(0, 100, f);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 2u);  // m2, m6
  for (const Event& e : events.value()) {
    EXPECT_EQ(e.partition % 4, 2);
  }
}

TEST_F(DatabusTest, ChainedRelayReplicatesStream) {
  Relay primary("relay-1", &db_, &network_);
  Relay chained("relay-2", net::Address("relay-1"), &network_);
  WriteProfiles(0, 10);
  ASSERT_OK(primary.PollOnce());
  auto polled = chained.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), 10);
  auto events = chained.ReadEvents(0, 100, Filter{});
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events.value().size(), 10u);
}

// A chained relay pulls 4 x poll_batch_transactions events per call; a
// transaction larger than that used to arrive cut, and the rest was never
// pulled.
TEST_F(DatabusTest, ChainedRelayPullsATransactionLargerThanItsPage) {
  Relay primary("relay-1", &db_, &network_);
  Relay chained("relay-2", net::Address("relay-1"), &network_,
                RelayOptions{.poll_batch_transactions = 1});
  auto txn = db_.Begin();
  for (int i = 0; i < 10; ++i) {
    txn.Put("profiles", "t" + std::to_string(i), Row{});
  }
  ASSERT_OK(txn.Commit());
  WriteProfiles(0, 1);
  ASSERT_OK(primary.PollOnce());
  while (chained.PollOnce().value() > 0) {
  }
  auto events = chained.ReadEvents(0, 100, Filter{});
  ASSERT_OK(events);
  EXPECT_EQ(events.value().size(), 11u);
}

// Golden: the bytes of "databus.read" replies for a fixed source, a
// transaction of three changes (one of them a delete, one partitioned) after
// one single-row commit. Each reply is EncodeEventList of the events it
// stands for, the full read is pinned in hex too, and a chained relay serves
// the same bytes.
TEST_F(DatabusTest, ReadRepliesKeepTheirWireBytes) {
  db_.SetPartitionFunction([](Slice key) { return key == "m1" ? 5 : -1; });
  ASSERT_OK(db_.Put("profiles", "m0", Row{{"name", "a"}}));
  auto txn = db_.Begin();
  txn.Put("profiles", "m1", Row{{"name", "b"}});
  txn.Delete("profiles", "m0");
  txn.Put("connections", "m0:m1", Row{});
  ASSERT_OK(txn.Commit());
  Relay primary("relay-1", &db_, &network_);
  Relay chained("relay-2", net::Address("relay-1"), &network_);
  ASSERT_OK(primary.PollOnce());
  ASSERT_OK(chained.PollOnce());

  auto event = [](int64_t scn, const char* source, const char* key,
                  Event::Op op, int partition, bool end_of_txn,
                  const std::string& payload) {
    Event e;
    e.scn = scn;
    e.source = source;
    e.key = key;
    e.op = op;
    e.partition = partition;
    e.end_of_txn = end_of_txn;
    e.payload = payload;
    return e;
  };
  auto row = [](const Row& r) {
    std::string out;
    sqlstore::EncodeRow(r, &out);
    return out;
  };
  const Event m0 = event(1, "profiles", "m0", Event::Op::kUpsert, -1, true,
                         row(Row{{"name", "a"}}));
  const Event m1 = event(2, "profiles", "m1", Event::Op::kUpsert, 5, false,
                         row(Row{{"name", "b"}}));
  const Event m0_deleted =
      event(2, "profiles", "m0", Event::Op::kDelete, -1, false, "");
  const Event link = event(2, "connections", "m0:m1", Event::Op::kUpsert, -1,
                           true, row(Row{}));
  Filter odd_partitions;
  odd_partitions.mod_base = 2;
  odd_partitions.mod_residues = {1};
  Filter connections;
  connections.sources = {"connections"};
  const struct {
    int64_t since_scn;
    Filter filter;
    std::vector<Event> events;
  } reads[] = {
      {0, Filter{}, {m0, m1, m0_deleted, link}},
      {1, Filter{}, {m1, m0_deleted, link}},
      {0, odd_partitions, {m1}},
      {0, connections, {link}},
  };
  for (const auto& read : reads) {
    std::string request;
    EncodeReadRequest(read.since_scn, 100, read.filter, &request);
    std::string expected;
    EncodeEventList(read.events, &expected);
    for (const char* relay : {"relay-1", "relay-2"}) {
      auto reply = network_.Call("client", relay, "databus.read", request);
      ASSERT_OK(reply);
      EXPECT_EQ(reply.value(), expected)
          << relay << " since " << read.since_scn;
    }
  }
  std::string request;
  EncodeReadRequest(0, 100, Filter{}, &request);
  auto reply = network_.Call("client", "relay-1", "databus.read", request);
  ASSERT_OK(reply);
  // count 4; then per event: scn, source, key, op, zigzag partition, end of
  // txn, payload (a row: column count, then name and value per column).
  EXPECT_EQ(Hex(reply.value()),
            "04"
            "01" "0870726f66696c6573" "026d30" "00" "01" "01"
            "08" "01046e616d65" "0161"
            "02" "0870726f66696c6573" "026d31" "00" "0a" "00"
            "08" "01046e616d65" "0162"
            "02" "0870726f66696c6573" "026d30" "01" "01" "00" "00"
            "02" "0b636f6e6e656374696f6e73" "056d303a6d31" "00" "01" "01"
            "01" "00");
}

// Golden: every kind of change a source commits reaches "databus.read" as
// EncodeEventList of the events it stands for — an insert, an update of a
// wider row, a delete, and a transaction of an insert, an update and a
// delete, under a partition function with negative and two-byte partitions.
// Read from every SCN, and one transaction per page.
TEST_F(DatabusTest, RelayServesGoldenEventsForEveryChangeKind) {
  db_.SetPartitionFunction([](Slice key) {
    return key == "m1" ? 70 : (key == "m2" ? -3 : 0);
  });
  ASSERT_OK(db_.Put("profiles", "m1", Row{{"name", "Ada"}}));
  ASSERT_OK(db_.Put("profiles", "m1",
                    Row{{"name", "Ada L"}, {"title", std::string(200, 't')}}));
  ASSERT_OK(db_.Delete("profiles", "m1"));
  ASSERT_OK(db_.Put("profiles", "m3", Row{{"name", "Cy"}}));
  auto txn = db_.Begin();
  txn.Put("profiles", "m2", Row{{"name", "Bo"}});
  txn.Put("profiles", "m3", Row{});
  txn.Delete("connections", "m2:m3");
  ASSERT_OK(txn.Commit());
  Relay relay("relay-1", &db_, &network_);
  ASSERT_OK(relay.PollOnce());

  auto event = [](int64_t scn, const char* key, Event::Op op, int partition,
                  bool end_of_txn, const Row* row, const char* source) {
    Event e;
    e.scn = scn;
    e.source = source;
    e.key = key;
    e.op = op;
    e.partition = partition;
    e.end_of_txn = end_of_txn;
    if (row != nullptr) sqlstore::EncodeRow(*row, &e.payload);
    return e;
  };
  const Row ada{{"name", "Ada"}};
  const Row ada_l{{"name", "Ada L"}, {"title", std::string(200, 't')}};
  const Row cy{{"name", "Cy"}};
  const Row bo{{"name", "Bo"}};
  const Row empty;
  constexpr auto kUpsert = Event::Op::kUpsert;
  constexpr auto kDelete = Event::Op::kDelete;
  const std::vector<Event> events = {
      event(1, "m1", kUpsert, 70, true, &ada, "profiles"),
      event(2, "m1", kUpsert, 70, true, &ada_l, "profiles"),
      event(3, "m1", kDelete, 70, true, nullptr, "profiles"),
      event(4, "m3", kUpsert, 0, true, &cy, "profiles"),
      event(5, "m2", kUpsert, -3, false, &bo, "profiles"),
      event(5, "m3", kUpsert, 0, false, &empty, "profiles"),
      event(5, "m2:m3", kDelete, 0, true, nullptr, "connections"),
  };
  for (int64_t since = 0; since <= 5; ++since) {
    for (int64_t max_events : {1, 100}) {
      std::vector<Event> page;
      for (const Event& e : events) {
        if (e.scn <= since) continue;
        if (static_cast<int64_t>(page.size()) >= max_events &&
            e.scn != page.back().scn) {
          break;
        }
        page.push_back(e);
      }
      std::string request;
      EncodeReadRequest(since, max_events, Filter{}, &request);
      std::string expected;
      EncodeEventList(page, &expected);
      auto reply = network_.Call("client", "relay-1", "databus.read", request);
      ASSERT_OK(reply);
      EXPECT_EQ(reply.value(), expected)
          << "since " << since << ", max_events " << max_events;
    }
  }
}

TEST_F(DatabusTest, RelayIsStatelessAcrossRestart) {
  // A relay that "restarts" (new instance) re-pulls from the source of
  // truth and serves the same stream (Section III.D).
  WriteProfiles(0, 10);
  {
    Relay relay("relay-1", &db_, &network_);
    ASSERT_OK(relay.PollOnce());
    EXPECT_EQ(relay.buffered_events(), 10);
  }
  Relay restarted("relay-1", &db_, &network_);
  ASSERT_OK(restarted.PollOnce());
  auto events = restarted.ReadEvents(0, 100, Filter{});
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events.value().size(), 10u);
}

// ---------------------------------------------------------------------------
// Bootstrap server
// ---------------------------------------------------------------------------

TEST_F(DatabusTest, BootstrapLogAndSnapshotStorages) {
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  WriteProfiles(0, 10);
  ASSERT_OK(relay.PollOnce());
  ASSERT_TRUE(bootstrap.PollRelayOnce().ok());
  EXPECT_EQ(bootstrap.log_size(), 10);
  EXPECT_EQ(bootstrap.snapshot_keys(), 0);  // applier has not run
  EXPECT_EQ(bootstrap.ApplyLogOnce(), 10);
  EXPECT_EQ(bootstrap.snapshot_keys(), 10);
  EXPECT_EQ(bootstrap.applied_scn(), 10);
}

// Log storage keeps only what the applier has not folded in yet, so the
// server holds one event per live key, not the stream's whole history.
TEST_F(DatabusTest, BootstrapLogKeepsOnlyTheUnappliedTail) {
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 100; ++k) {
      ASSERT_OK(db_.Put("profiles", "m" + std::to_string(k),
                        Row{{"v", std::to_string(round)}}));
    }
    ASSERT_OK(relay.PollOnce());
  }
  ASSERT_OK(bootstrap.PollRelayOnce());
  ASSERT_EQ(bootstrap.log_size(), 5000);

  // Part applied: the tail still answers queries.
  EXPECT_EQ(bootstrap.ApplyLogOnce(4900), 4900);
  EXPECT_EQ(bootstrap.log_size(), 100);
  EXPECT_EQ(bootstrap.snapshot_keys(), 100);
  auto delta = bootstrap.ConsolidatedDelta(4950, Filter{});
  ASSERT_OK(delta);
  EXPECT_EQ(delta.value().size(), 50u);

  EXPECT_EQ(bootstrap.ApplyLogOnce(), 100);
  EXPECT_EQ(bootstrap.log_size(), 0);  // 5,000 before each event left the log
  EXPECT_EQ(bootstrap.snapshot_keys(), 100);
  EXPECT_EQ(bootstrap.applied_scn(), 5000);
  auto snapshot = bootstrap.ConsistentSnapshot(Filter{});
  ASSERT_OK(snapshot);
  EXPECT_EQ(snapshot.value().snapshot_scn, 5000);
  ASSERT_EQ(snapshot.value().rows.size(), 100u);
  for (const Event& row : snapshot.value().rows) {
    EXPECT_GT(row.scn, 4900);
    auto decoded = sqlstore::DecodeRow(row.payload);
    ASSERT_OK(decoded);
    EXPECT_EQ(decoded.value(), (Row{{"v", "49"}}));
  }
  delta = bootstrap.ConsolidatedDelta(4950, Filter{});
  ASSERT_OK(delta);
  EXPECT_EQ(delta.value().size(), 50u);
}

TEST_F(DatabusTest, ConsolidatedDeltaReturnsOnlyLastUpdatePerKey) {
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  // 50 updates to the same key plus one to another key.
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_.Put("profiles", "hot", Row{{"v", std::to_string(i)}}));
  }
  ASSERT_OK(db_.Put("profiles", "cold", Row{{"v", "x"}}));
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(bootstrap.PollRelayOnce());
  bootstrap.ApplyLogOnce();

  auto delta = bootstrap.ConsolidatedDelta(0, Filter{});
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta.value().size(), 2u);  // "fast playback": 51 events -> 2
  for (const Event& e : delta.value()) {
    if (e.key == "hot") {
      auto row = sqlstore::DecodeRow(e.payload);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(row.value().at("v"), "49");
    }
  }
}

TEST_F(DatabusTest, ConsolidatedDeltaHonorsSinceScn) {
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  WriteProfiles(0, 10);
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(bootstrap.PollRelayOnce());
  bootstrap.ApplyLogOnce();
  auto delta = bootstrap.ConsolidatedDelta(7, Filter{});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().size(), 3u);
}

TEST_F(DatabusTest, ConsistentSnapshotExcludesDeletes) {
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  WriteProfiles(0, 5);
  ASSERT_OK(db_.Delete("profiles", "m2"));
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(bootstrap.PollRelayOnce());
  bootstrap.ApplyLogOnce();
  auto snapshot = bootstrap.ConsistentSnapshot(Filter{});
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().rows.size(), 4u);
  EXPECT_EQ(snapshot.value().snapshot_scn, 6);
  for (const Event& e : snapshot.value().rows) EXPECT_NE(e.key, "m2");
}

TEST_F(DatabusTest, SnapshotConsistentWithUnappliedLogTail) {
  // The replay path: snapshot serving must reflect events the applier has
  // not folded yet.
  Relay relay("relay-1", &db_, &network_);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  WriteProfiles(0, 5);
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(bootstrap.PollRelayOnce());
  bootstrap.ApplyLogOnce(3);  // applier lags behind
  auto snapshot = bootstrap.ConsistentSnapshot(Filter{});
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().rows.size(), 5u);
  EXPECT_EQ(snapshot.value().snapshot_scn, 5);
}

// ---------------------------------------------------------------------------
// Client library
// ---------------------------------------------------------------------------

class RecordingConsumer : public Consumer {
 public:
  Status OnEvent(const Event& event) override {
    if (fail_next_ > 0) {
      --fail_next_;
      return Status::Internal("injected consumer failure");
    }
    events.push_back(event);
    return Status::OK();
  }
  void OnCheckpoint(int64_t scn) override { last_checkpoint = scn; }
  void OnBootstrap(bool snapshot_phase) override {
    bootstraps++;
    if (snapshot_phase) snapshot_bootstraps++;
  }

  void FailNext(int n) { fail_next_ = n; }

  std::vector<Event> events;
  int64_t last_checkpoint = 0;
  int bootstraps = 0;
  int snapshot_bootstraps = 0;

 private:
  int fail_next_ = 0;
};

TEST_F(DatabusTest, ClientConsumesFromRelay) {
  Relay relay("relay-1", &db_, &network_);
  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "", &network_, &consumer);
  WriteProfiles(0, 10);
  ASSERT_OK(relay.PollOnce());
  auto r = client.DrainToHead();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 10);
  EXPECT_EQ(consumer.events.size(), 10u);
  EXPECT_EQ(client.checkpoint_scn(), 10);
  EXPECT_EQ(consumer.last_checkpoint, 10);
}

TEST_F(DatabusTest, ClientIncrementalConsumption) {
  Relay relay("relay-1", &db_, &network_);
  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "", &network_, &consumer);
  WriteProfiles(0, 5);
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(client.DrainToHead());
  WriteProfiles(5, 5);
  ASSERT_OK(relay.PollOnce());
  ASSERT_OK(client.DrainToHead());
  EXPECT_EQ(consumer.events.size(), 10u);
  // No duplicates: scns strictly increase.
  for (size_t i = 1; i < consumer.events.size(); ++i) {
    EXPECT_GT(consumer.events[i].scn, consumer.events[i - 1].scn);
  }
}

// The client asks for 4096 events per poll; a larger transaction used to
// reach it cut, with no error, and the poll after resumed past its end.
TEST_F(DatabusTest, ClientReceivesATransactionLargerThanOnePage) {
  Relay relay("relay-1", &db_, &network_);
  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "", &network_, &consumer);
  auto txn = db_.Begin();
  for (int i = 0; i < 5000; ++i) {
    txn.Put("profiles", "t" + std::to_string(i), Row{{"name", "t"}});
  }
  ASSERT_OK(txn.Commit());
  WriteProfiles(0, 1);
  ASSERT_OK(relay.PollOnce());
  auto r = client.DrainToHead();
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), 5001);
  ASSERT_EQ(consumer.events.size(), 5001u);
  EXPECT_EQ(consumer.events[4999].key, "t4999");
  EXPECT_TRUE(consumer.events[4999].end_of_txn);
  EXPECT_EQ(client.checkpoint_scn(), 2);
}

TEST_F(DatabusTest, ClientRetriesFailingConsumer) {
  Relay relay("relay-1", &db_, &network_);
  RecordingConsumer consumer;
  ClientOptions options;
  options.max_event_retries = 3;
  DatabusClient client("client-1", "relay-1", "", &network_, &consumer,
                       options);
  WriteProfiles(0, 1);
  ASSERT_OK(relay.PollOnce());
  consumer.FailNext(2);  // fails twice, then succeeds within retry budget
  auto r = client.PollOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(consumer.events.size(), 1u);
  EXPECT_EQ(client.events_skipped(), 0);
}

TEST_F(DatabusTest, ClientSkipsPoisonEventAfterRetries) {
  Relay relay("relay-1", &db_, &network_);
  RecordingConsumer consumer;
  ClientOptions options;
  options.max_event_retries = 2;
  DatabusClient client("client-1", "relay-1", "", &network_, &consumer,
                       options);
  WriteProfiles(0, 2);
  ASSERT_OK(relay.PollOnce());
  consumer.FailNext(3);  // exhausts 1 + 2 retries for the first event only
  auto r = client.PollOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(client.events_skipped(), 1);
  EXPECT_EQ(consumer.events.size(), 1u);  // second event delivered
  EXPECT_EQ(client.checkpoint_scn(), 2);  // stream continues past the poison
}

TEST_F(DatabusTest, ClientFallsBackToBootstrapWhenRelayEvicts) {
  RelayOptions relay_options;
  relay_options.buffer_capacity_events = 5;
  Relay relay("relay-1", &db_, &network_, relay_options);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);

  // Bootstrap keeps the long history while the relay evicts: it polls the
  // relay continuously, so it sees every event before eviction.
  for (int i = 0; i < 30; ++i) {
    WriteProfiles(i, 1);
    ASSERT_OK(relay.PollOnce());
    ASSERT_TRUE(bootstrap.PollRelayOnce().ok());
  }
  bootstrap.ApplyLogOnce();
  ASSERT_EQ(bootstrap.applied_scn(), 30);
  EXPECT_EQ(relay.buffered_events(), 5);

  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "bootstrap-1", &network_,
                       &consumer);
  client.RestoreCheckpoint(2);  // has state, but the relay evicted scn 3..25
  auto r = client.DrainToHead();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(consumer.bootstraps, 1);
  EXPECT_EQ(consumer.snapshot_bootstraps, 0);  // consolidated delta path
  EXPECT_EQ(client.checkpoint_scn(), 30);
  // Consolidated delta: 28 distinct keys remained (m3..m30 minus dupes —
  // all keys distinct here, so every key with scn > 2).
  EXPECT_EQ(consumer.events.size(), 28u);
}

TEST_F(DatabusTest, FreshClientBootstrapsViaSnapshot) {
  RelayOptions relay_options;
  relay_options.buffer_capacity_events = 5;
  Relay relay("relay-1", &db_, &network_, relay_options);
  BootstrapServer bootstrap("bootstrap-1", "relay-1", &network_);
  for (int batch = 0; batch < 6; ++batch) {
    WriteProfiles(batch * 5, 5);
    ASSERT_OK(relay.PollOnce());
    ASSERT_OK(bootstrap.PollRelayOnce());
  }
  bootstrap.ApplyLogOnce();

  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "bootstrap-1", &network_,
                       &consumer);
  auto r = client.DrainToHead();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(consumer.snapshot_bootstraps, 1);
  EXPECT_EQ(consumer.events.size(), 30u);
  EXPECT_EQ(client.checkpoint_scn(), 30);

  // After bootstrapping, new writes flow from the relay (switchover back).
  WriteProfiles(100, 3);
  ASSERT_OK(relay.PollOnce());
  ASSERT_TRUE(client.DrainToHead().ok());
  EXPECT_EQ(consumer.events.size(), 33u);
  EXPECT_EQ(consumer.bootstraps, 1);  // no second bootstrap
}

TEST_F(DatabusTest, PartitionedConsumerGroupSplitsStream) {
  // Data source/subscriber isolation (III.B): two consumers partition the
  // computation; each sees a disjoint subset, together the whole stream.
  db_.SetPartitionFunction([](Slice key) {
    return static_cast<int>(key.size() > 1 ? (key[1] - '0') : 0);
  });
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 10);  // m0..m9 -> partitions 0..9
  ASSERT_OK(relay.PollOnce());

  RecordingConsumer even_consumer, odd_consumer;
  ClientOptions even_options, odd_options;
  even_options.filter.mod_base = 2;
  even_options.filter.mod_residues = {0};
  odd_options.filter.mod_base = 2;
  odd_options.filter.mod_residues = {1};
  DatabusClient even("c-even", "relay-1", "", &network_, &even_consumer,
                     even_options);
  DatabusClient odd("c-odd", "relay-1", "", &network_, &odd_consumer,
                    odd_options);
  ASSERT_TRUE(even.DrainToHead().ok());
  ASSERT_TRUE(odd.DrainToHead().ok());
  EXPECT_EQ(even_consumer.events.size(), 5u);
  EXPECT_EQ(odd_consumer.events.size(), 5u);
  for (const Event& e : even_consumer.events) EXPECT_EQ(e.partition % 2, 0);
  for (const Event& e : odd_consumer.events) EXPECT_EQ(e.partition % 2, 1);
}

TEST_F(DatabusTest, ManyConsumersDoNotIncreaseSourceLoad) {
  // Paper III.B: "Isolate the source database from the number of
  // subscribers". The binlog read count depends on relay polls only.
  Relay relay("relay-1", &db_, &network_);
  WriteProfiles(0, 10);
  ASSERT_OK(relay.PollOnce());
  const int64_t source_reads_before = db_.binlog().ReadCalls();

  std::vector<std::unique_ptr<RecordingConsumer>> consumers;
  std::vector<std::unique_ptr<DatabusClient>> clients;
  for (int i = 0; i < 50; ++i) {
    consumers.push_back(std::make_unique<RecordingConsumer>());
    clients.push_back(std::make_unique<DatabusClient>(
        "c" + std::to_string(i), "relay-1", "", &network_,
        consumers.back().get()));
    ASSERT_TRUE(clients.back()->DrainToHead().ok());
    EXPECT_EQ(consumers.back()->events.size(), 10u);
  }
  EXPECT_EQ(db_.binlog().ReadCalls(), source_reads_before);
}

// A "bootstrap.snapshot" reply's SCN lands in int64_t too: 2^64 - 1 used to
// arrive as -1, after the client had handed the snapshot's rows to its
// consumer.
TEST_F(DatabusTest, SnapshotScnOutsideInt64IsCorruption) {
  network_.Register("relay-1", "databus.read", [](Slice) {
    std::string empty;
    PutVarint64(&empty, 0);
    return Result<std::string>(std::move(empty));
  });
  network_.Register("bootstrap-1", "bootstrap.snapshot", [](Slice) {
    std::string reply;
    PutVarint64(&reply, ~uint64_t{0});
    Event row;
    row.scn = 1;
    row.source = "profiles";
    row.key = "m1";
    EncodeEventList({row}, &reply);
    return Result<std::string>(std::move(reply));
  });
  RecordingConsumer consumer;
  DatabusClient client("client-1", "relay-1", "bootstrap-1", &network_,
                       &consumer);
  EXPECT_EQ(client.PollOnce().status().code(), Code::kCorruption);
  EXPECT_EQ(client.checkpoint_scn(), 0);
  EXPECT_TRUE(consumer.events.empty());
}

}  // namespace
}  // namespace lidi::databus
