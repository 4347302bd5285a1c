#ifndef LIDI_KAFKA_BROKER_H_
#define LIDI_KAFKA_BROKER_H_

#include <map>
#include <memory>
#include <string>

#include "common/overload.h"
#include "common/sync.h"

#include "common/clock.h"
#include "kafka/log.h"
#include "net/address.h"
#include "net/transport.h"
#include "zk/zookeeper.h"

namespace lidi::kafka {

/// How the broker moves bytes from the log to the consumer socket — the
/// efficient-transfer ablation of Section V.B. kFourCopy models the typical
/// path (page cache -> application buffer -> kernel socket buffer -> NIC: 4
/// copies, 2 syscalls), and performs those copies for real so the bench
/// measures actual memory bandwidth. kSendfile models the sendfile API
/// (direct file channel -> socket channel): the broker hands out a pinned
/// view of the log's segment buffer and the CPU copies nothing — the two
/// remaining transfers of real sendfile are DMA, not memcpy, so they count
/// in the registry's "kafka.fetch.bytes_avoided{broker=...}" rather than
/// "kafka.fetch.bytes_copied".
enum class TransferMode { kFourCopy, kSendfile };

struct BrokerOptions {
  LogOptions log;
  TransferMode transfer_mode = TransferMode::kSendfile;
  /// Zookeeper chroot for this cluster; a second cluster (e.g. the offline
  /// mirror, Section V.D) uses a different root.
  std::string zk_root = "/kafka";

  /// Per-client request-rate quota on the kafka.produce RPC path,
  /// token-bucket enforced per caller identity (net::CallerIdentity). A
  /// request over quota is rejected before any decode or log work with
  /// Status::Overloaded — the survival mechanism that keeps one hot
  /// producer from starving the broker (DESIGN.md §11). <= 0 disables.
  /// Direct in-process Produce calls are not quota'd (they are the caller's
  /// own process).
  double quota_produce_per_sec = 0;
  /// Bucket capacity in requests (allowed burst above the sustained rate).
  double quota_burst = 16;
};

/// A Kafka broker (paper Section V.A): stores the partitions of topics as
/// logs, serves producer appends and consumer pulls. Brokers keep no
/// consumer state (V.B) — consumers track their own offsets.
///
/// On startup the broker registers itself in Zookeeper
/// (/kafka/brokers/ids/<id>, ephemeral) and advertises topic partition
/// counts under /kafka/brokers/topics/<topic>/<id>.
///
/// RPC: kafka.produce {topic, partition, set bytes},
///      kafka.fetch {topic, partition, offset, max_bytes} -> set bytes.
class Broker {
 public:
  Broker(int id, zk::ZooKeeper* zookeeper, net::Transport* network,
         const Clock* clock, BrokerOptions options = {});
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  int id() const { return id_; }
  const net::Address& address() const { return address_; }

  /// Creates a topic with `partitions` partitions on this broker and
  /// advertises it in Zookeeper.
  Status CreateTopic(const std::string& topic, int partitions);

  /// Direct (in-process) produce/fetch paths; the RPC handlers forward here.
  Result<int64_t> Produce(const std::string& topic, int partition,
                          Slice message_set);

  /// Zero-copy fetch: in kSendfile mode the result is a pinned view into
  /// the partition log's segment buffer (no payload bytes move); in
  /// kFourCopy mode the intermediate buffer copies are performed for real
  /// and the result owns the final "socket buffer".
  Result<PinnedSlice> FetchPinned(const std::string& topic, int partition,
                                  int64_t offset, int64_t max_bytes);

  /// Copying convenience wrapper over FetchPinned (legacy API).
  Result<std::string> Fetch(const std::string& topic, int partition,
                            int64_t offset, int64_t max_bytes);

  PartitionLog* GetLog(const std::string& topic, int partition);

  /// Flushes every partition log (tests; production uses the flush policy).
  void FlushAll();

  /// Runs the retention janitor over all logs. Returns segments deleted.
  int EnforceRetention();

  /// Quota kill switch (the sim harness ends admission pressure before
  /// settling; see PerClientQuota::set_enforcing).
  void SetQuotaEnforcing(bool enforcing);
  int64_t quota_rejects() const;

  /// Simulated crash/restart: deregisters from zk (ephemeral vanishes).
  void Shutdown();

 private:
  Result<std::string> HandleProduce(Slice request);
  Result<PinnedSlice> HandleFetch(Slice request);

  /// Creates the /brokers zk skeleton plus this broker's ephemeral id node
  /// (the advertisement producers/consumers discover brokers by).
  Status RegisterInZk();

  const int id_;
  zk::ZooKeeper* const zookeeper_;
  net::Transport* const network_;
  const Clock* const clock_;
  const BrokerOptions options_;
  const net::Address address_;
  // tsa-ok: written once during construction, immutable afterwards.
  zk::SessionId session_;

  /// Registry instruments (from network->metrics()); the stats hot path is
  /// relaxed atomics, no broker mutex.
  obs::Counter* fetch_bytes_copied_;   // real memcpy traffic serving fetches
  obs::Counter* fetch_bytes_avoided_;  // four-copy traffic the zero-copy
                                       // path skipped
  obs::Counter* fetch_syscalls_;       // simulated syscall count
  obs::Counter* fetch_count_;
  obs::Counter* produce_count_;
  obs::Counter* produce_messages_;
  obs::Counter* produce_bytes_;
  obs::Counter* quota_rejects_;

  /// Per-client token buckets for kafka.produce (see BrokerOptions).
  PerClientQuota produce_quota_;

  /// Guards the partition map only; held across per-log calls in the
  /// flush/retention sweeps (broker -> log writer -> snapshot order).
  mutable Mutex mu_{"kafka.broker.partitions",
                    lockrank::kKafkaBrokerPartitions};
  std::map<std::pair<std::string, int>, std::unique_ptr<PartitionLog>>
      logs_ LIDI_GUARDED_BY(mu_);
  /// Non-OK when zk registration failed at construction; CreateTopic
  /// retries it before advertising anything.
  Status zk_registration_ LIDI_GUARDED_BY(mu_);
};

/// Produce/fetch request codecs (shared with producer/consumer).
void EncodeProduceRequest(Slice topic, int partition, Slice message_set,
                          std::string* out);
Status DecodeProduceRequest(Slice input, std::string* topic, int* partition,
                            std::string* message_set);
void EncodeFetchRequest(Slice topic, int partition, int64_t offset,
                        int64_t max_bytes, std::string* out);
Status DecodeFetchRequest(Slice input, std::string* topic, int* partition,
                          int64_t* offset, int64_t* max_bytes);

}  // namespace lidi::kafka

#endif  // LIDI_KAFKA_BROKER_H_
