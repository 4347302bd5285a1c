#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/clock.h"
#include "common/random.h"
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

// ---------------------------------------------------------------------------
// Partition log
// ---------------------------------------------------------------------------

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

}  // namespace
}  // namespace lidi::kafka
