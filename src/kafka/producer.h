#ifndef LIDI_KAFKA_PRODUCER_H_
#define LIDI_KAFKA_PRODUCER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

#include "common/compression.h"
#include "common/random.h"
#include "kafka/message.h"
#include "net/transport.h"
#include "zk/zookeeper.h"

namespace lidi::kafka {

/// Identifies one partition of a topic cluster-wide: partitions live on
/// specific brokers (paper Figure V.1: each broker stores one or more
/// partitions of a topic).
struct TopicPartition {
  int broker_id = -1;
  int partition = -1;
  friend bool operator<(const TopicPartition& a, const TopicPartition& b) {
    return std::tie(a.broker_id, a.partition) <
           std::tie(b.broker_id, b.partition);
  }
  friend bool operator==(const TopicPartition& a, const TopicPartition& b) {
    return a.broker_id == b.broker_id && a.partition == b.partition;
  }
};

struct ProducerOptions {
  CompressionCodec codec = CompressionCodec::kNone;
  /// Messages buffered per partition before a batch is shipped ("the
  /// producer can send a set of messages in a single publish request").
  int batch_size = 1;
  uint64_t seed = 7;
  std::string zk_root = "/kafka";
};

/// The Kafka producer (paper Section V.A/V.C): discovers brokers and topic
/// partition counts from Zookeeper, publishes message sets to either a
/// randomly selected partition or one chosen by a partitioning key and
/// function (key-hash), batching and optionally compressing each set.
///
/// Each topic's partition list is cached. It is re-read only after one of
/// the one-shot watches left while reading it has fired: a child watch on
/// <root>/brokers/topics/<topic>, or a data watch on a broker's
/// advertisement under it. The watches belong to the producer's own
/// Zookeeper session, which the destructor closes.
class Producer {
 public:
  Producer(std::string name, zk::ZooKeeper* zookeeper, net::Transport* network,
           ProducerOptions options = {});
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Publishes to a random partition of the topic.
  Status Send(const std::string& topic, Slice payload);
  /// Publishes to the partition selected by hash(key) — messages with the
  /// same key preserve relative order.
  Status Send(const std::string& topic, Slice key, Slice payload);

  /// Ships all buffered batches. Returns the first error encountered.
  Status Flush();

  /// The cluster-wide partition list of a topic, as Zookeeper last
  /// advertised it.
  Result<std::vector<TopicPartition>> PartitionsOf(const std::string& topic);

  int64_t messages_sent() const { return messages_sent_.load(); }
  /// Bytes actually shipped to brokers (after compression) — the numerator
  /// of the bandwidth-saving experiment (E16).
  int64_t bytes_on_wire() const { return bytes_on_wire_.load(); }

 private:
  /// A produce request built under mu_ but dispatched after release: the
  /// producer never holds its lock across the broker RPC.
  struct PendingRequest {
    bool send = false;
    TopicPartition tp;
    std::string request;
  };

  /// A one-shot Zookeeper watch the partition cache relies on. The
  /// callback only bumps `epoch`, and shares it, so a watch that fires while
  /// the producer is being destroyed still writes live memory.
  struct Watch {
    std::string path;
    std::shared_ptr<std::atomic<uint64_t>> epoch =
        std::make_shared<std::atomic<uint64_t>>(0);
    bool fired() const { return epoch->load() != 0; }
  };

  /// A topic's partition list as last read, with the watches left on the
  /// znodes it was read from.
  struct CachedTopic {
    std::vector<TopicPartition> partitions;
    std::vector<Watch> watches;
  };

  /// Buffers the payload on the partition hash(*key) selects, or on a
  /// random one when `key` is null, and ships the batch if it filled.
  Status Publish(const std::string& topic, const Slice* key, Slice payload);
  /// The topic's cached partition list, re-read from Zookeeper first when a
  /// watch has fired. Zookeeper is called under mu_, which is legal because
  /// the watch callbacks take no lock. Never null or empty on success.
  Result<const std::vector<TopicPartition>*> PartitionsLocked(
      const std::string& topic) LIDI_REQUIRES(mu_);
  /// Re-reads the topic's partitions, leaving a watch on each znode whose
  /// previous watch fired (or that is new) and keeping the armed ones.
  Status ReadPartitionsLocked(const std::string& topic, CachedTopic* cached)
      LIDI_REQUIRES(mu_);

  /// Buffers the payload; when the batch fills, drains it into *out.
  void BufferLocked(const std::string& topic, const TopicPartition& tp,
                    Slice payload, PendingRequest* out) LIDI_REQUIRES(mu_);
  /// Drains the partition's batch (if any) into *out, resetting the builder.
  void BuildRequestLocked(const std::string& topic, const TopicPartition& tp,
                          PendingRequest* out) LIDI_REQUIRES(mu_);
  /// Ships a drained batch; no lock held.
  Status Dispatch(const PendingRequest& pending) LIDI_EXCLUDES(mu_);

  const std::string name_;
  zk::ZooKeeper* const zookeeper_;
  net::Transport* const network_;
  const ProducerOptions options_;
  /// Owns the partition-cache watches; closed by the destructor.
  const zk::SessionId session_;

  Mutex mu_{"kafka.producer"};
  Random rng_ LIDI_GUARDED_BY(mu_);
  std::map<std::string, CachedTopic> topics_ LIDI_GUARDED_BY(mu_);
  std::map<std::pair<std::string, TopicPartition>, MessageSetBuilder> batches_
      LIDI_GUARDED_BY(mu_);
  /// Atomics, not guarded: the stats accessors read them without the mutex.
  std::atomic<int64_t> messages_sent_{0};
  std::atomic<int64_t> bytes_on_wire_{0};
};

}  // namespace lidi::kafka

#endif  // LIDI_KAFKA_PRODUCER_H_
