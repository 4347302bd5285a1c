#include "net/address.h"
#include "kafka/broker.h"

#include <cstring>
#include <limits>

#include "common/coding.h"
#include "kafka/message.h"
#include "net/frame.h"

namespace lidi::kafka {

namespace {

// Partition logs report their durability instruments (io.sync.count,
// io.write.failed, ...) into the broker's registry unless the caller wired
// one explicitly.
BrokerOptions WithLogMetrics(BrokerOptions options, net::Transport* network) {
  if (options.log.metrics == nullptr) options.log.metrics = network->metrics();
  return options;
}

// Request fields land in int and int64_t; a wider value is Corruption, never
// wrapped to another partition or a negative offset.
constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr uint64_t kInt64Max = std::numeric_limits<int64_t>::max();

Status OutOfRange(const char* field, uint64_t value) {
  return Status::Corruption(std::string(field) + " " + std::to_string(value) +
                            " out of range");
}

}  // namespace

void EncodeProduceRequest(Slice topic, int partition, Slice message_set,
                          std::string* out) {
  PutLengthPrefixed(out, topic);
  PutVarint64(out, static_cast<uint64_t>(partition));
  PutLengthPrefixed(out, message_set);
}

Status DecodeProduceRequest(Slice input, std::string* topic, int* partition,
                            Slice* message_set) {
  Slice t;
  uint64_t p;
  if (!GetLengthPrefixed(&input, &t) || !GetVarint64(&input, &p) ||
      !GetLengthPrefixed(&input, message_set)) {
    return Status::Corruption("truncated produce request");
  }
  if (p > kIntMax) return OutOfRange("produce request partition", p);
  *topic = t.ToString();
  *partition = static_cast<int>(p);
  return Status::OK();
}

void EncodeFetchRequest(Slice topic, int partition, int64_t offset,
                        int64_t max_bytes, std::string* out) {
  PutLengthPrefixed(out, topic);
  PutVarint64(out, static_cast<uint64_t>(partition));
  PutVarint64(out, static_cast<uint64_t>(offset));
  PutVarint64(out, static_cast<uint64_t>(max_bytes));
}

Status DecodeFetchRequest(Slice input, std::string* topic, int* partition,
                          int64_t* offset, int64_t* max_bytes) {
  Slice t;
  uint64_t p, o, m;
  if (!GetLengthPrefixed(&input, &t) || !GetVarint64(&input, &p) ||
      !GetVarint64(&input, &o) || !GetVarint64(&input, &m)) {
    return Status::Corruption("truncated fetch request");
  }
  if (p > kIntMax) return OutOfRange("fetch request partition", p);
  if (o > kInt64Max) return OutOfRange("fetch request offset", o);
  if (m > kInt64Max) return OutOfRange("fetch request max_bytes", m);
  *topic = t.ToString();
  *partition = static_cast<int>(p);
  *offset = static_cast<int64_t>(o);
  *max_bytes = static_cast<int64_t>(m);
  return Status::OK();
}

Broker::Broker(int id, zk::ZooKeeper* zookeeper, net::Transport* network,
               const Clock* clock, BrokerOptions options)
    : id_(id),
      zookeeper_(zookeeper),
      network_(network),
      clock_(clock),
      options_(WithLogMetrics(std::move(options), network)),
      address_(net::MakeAddress(net::Tier::kKafkaBroker, id)),
      produce_quota_(options_.quota_produce_per_sec, options_.quota_burst) {
  obs::MetricsRegistry* metrics = network_->metrics();
  const obs::Labels labels{{"broker", std::to_string(id_)}};
  fetch_bytes_copied_ = metrics->GetCounter("kafka.fetch.bytes_copied", labels);
  fetch_bytes_avoided_ =
      metrics->GetCounter("kafka.fetch.bytes_avoided", labels);
  fetch_syscalls_ = metrics->GetCounter("kafka.fetch.syscalls", labels);
  fetch_count_ = metrics->GetCounter("kafka.fetch.count", labels);
  produce_count_ = metrics->GetCounter("kafka.produce.count", labels);
  produce_messages_ = metrics->GetCounter("kafka.produce.messages", labels);
  produce_bytes_ = metrics->GetCounter("kafka.produce.bytes", labels);
  quota_rejects_ = metrics->GetCounter("kafka.quota.rejects", labels);
  session_ = zookeeper_->CreateSession();
  // An unregistered broker is invisible to producers and consumers (they
  // discover brokers through these nodes) while happily serving RPCs — a
  // silent outage. The constructor cannot fail, so the status is kept and
  // the first CreateTopic retries and surfaces it.
  zk_registration_ = RegisterInZk();
  network_->Register(address_, "kafka.produce",
                     [this](Slice req) { return HandleProduce(req); });
  // Fetch serves pinned payload views (the zero-copy path); string-typed
  // callers still work through Network::Call, which materializes on demand.
  network_->RegisterPayload(address_, "kafka.fetch",
                            [this](Slice req) { return HandleFetch(req); });
  // Offset bounds: "start end" of the retained, flushed log range. Lets a
  // consumer whose offset expired under retention restart from the head.
  network_->Register(
      address_, "kafka.offset-bounds", [this](Slice req) -> Result<std::string> {
        std::string topic;
        int partition;
        Slice ignored;
        Status s = DecodeProduceRequest(req, &topic, &partition, &ignored);
        if (!s.ok()) return s;
        PartitionLog* log = GetLog(topic, partition);
        if (log == nullptr) return Status::NotFound("no partition");
        return std::to_string(log->start_offset()) + " " +
               std::to_string(log->flushed_end_offset());
      });
}

Broker::~Broker() {
  network_->Unregister(address_);
  zookeeper_->CloseSession(session_);
}

void Broker::Shutdown() {
  network_->Unregister(address_);
  zookeeper_->CloseSession(session_);
}

Status Broker::RegisterInZk() {
  // AlreadyExists is success everywhere here: the skeleton is shared by all
  // brokers, and a surviving id node from this broker's previous life means
  // the advertisement clients route by is already up.
  auto tolerate_existing = [](Status s) {
    return s.code() == Code::kAlreadyExists ? Status::OK() : s;
  };
  Status reg = tolerate_existing(zookeeper_->CreateRecursive(
      session_, options_.zk_root + "/brokers/ids", "",
      zk::CreateMode::kPersistent));
  if (reg.ok()) {
    reg = tolerate_existing(zookeeper_->CreateRecursive(
        session_, options_.zk_root + "/brokers/topics", "",
        zk::CreateMode::kPersistent));
  }
  if (reg.ok()) {
    reg = tolerate_existing(zookeeper_->Create(
        session_, options_.zk_root + "/brokers/ids/" + std::to_string(id_),
        address_, zk::CreateMode::kEphemeral));
  }
  return reg;
}

Status Broker::CreateTopic(const std::string& topic, int partitions) {
  // Registration may have failed at construction (ZooKeeper unreachable);
  // the broker id node is the advertisement clients route by, so retry it
  // before advertising any topic. RPCs run outside mu_ — only the cached
  // status is read/written under the lock.
  bool need_register;
  {
    MutexLock lock(&mu_);
    need_register = !zk_registration_.ok();
  }
  if (need_register) {
    Status reg = RegisterInZk();
    MutexLock lock(&mu_);
    zk_registration_ = reg;
    if (!reg.ok()) return reg;
  }
  {
    MutexLock lock(&mu_);
    for (int p = 0; p < partitions; ++p) {
      auto key = std::make_pair(topic, p);
      if (logs_.count(key) == 0) {
        // Each partition persists under its own "<topic>-<partition>"
        // directory. Sharing the broker root would interleave the segment
        // files of different topics into one physical log — recovery would
        // then serve one topic's bytes to another's consumers.
        LogOptions log_options = options_.log;
        if (!log_options.data_dir.empty()) {
          log_options.data_dir += "/" + topic + "-" + std::to_string(p);
        }
        logs_[key] = std::make_unique<PartitionLog>(log_options, clock_);
      }
    }
  }
  // The advertisement is the topic's existence as far as clients are
  // concerned (AllPartitions reads it): a failed create must not report the
  // topic as created. AlreadyExists means it is advertised — re-creating a
  // topic (or re-advertising after restart) is idempotent success.
  Status ad = zookeeper_->CreateRecursive(
      session_,
      options_.zk_root + "/brokers/topics/" + topic + "/" + std::to_string(id_),
      std::to_string(partitions), zk::CreateMode::kEphemeral);
  return ad.code() == Code::kAlreadyExists ? Status::OK() : ad;
}

PartitionLog* Broker::GetLog(const std::string& topic, int partition) {
  MutexLock lock(&mu_);
  auto it = logs_.find({topic, partition});
  return it == logs_.end() ? nullptr : it->second.get();
}

// A produce carries at most one frame of uncompressed entries, so no wrapper
// a broker accepts inflates past what recovery will inflate.
static_assert(kMaxDecompressedBytes == net::kDefaultMaxFrameBytes);

Result<int64_t> Broker::Produce(const std::string& topic, int partition,
                                Slice message_set) {
  PartitionLog* log = GetLog(topic, partition);
  if (log == nullptr) {
    return Status::NotFound("no partition " + topic + "/" +
                            std::to_string(partition));
  }
  auto count = CountMessages(message_set);
  if (!count.ok()) return count.status();
  int64_t offset = 0;
  if (options_.log.sync == io::SyncPolicy::kAlways &&
      options_.log.group_commit) {
    // Durability-acknowledged produce: the offset is returned only after a
    // covering group sync. A failed write or sync surfaces here as an error
    // instead of a silently-volatile ack.
    auto durable = log->AppendDurable(message_set,
                                      static_cast<int>(count.value()));
    if (!durable.ok()) return durable.status();
    offset = durable.value();
  } else {
    offset = log->Append(message_set, static_cast<int>(count.value()));
  }
  produce_count_->Increment();
  produce_messages_->Add(count.value());
  produce_bytes_->Add(static_cast<int64_t>(message_set.size()));
  return offset;
}

Result<PinnedSlice> Broker::FetchPinned(const std::string& topic,
                                        int partition, int64_t offset,
                                        int64_t max_bytes) {
  PartitionLog* log = GetLog(topic, partition);
  if (log == nullptr) {
    return Status::NotFound("no partition " + topic + "/" +
                            std::to_string(partition));
  }
  int64_t gathered = 0;
  auto data = log->ReadPinned(offset, max_bytes, &gathered);
  if (!data.ok()) return data;
  const int64_t n = static_cast<int64_t>(data.value().size());

  if (options_.transfer_mode == TransferMode::kSendfile) {
    // sendfile: file channel -> socket channel. The pinned view IS the
    // response — the CPU touches no payload byte. Real sendfile still moves
    // the bytes twice by DMA (page cache -> NIC), but those are not memcpys;
    // relative to the four-copy path, two buffer copies are avoided
    // outright and two more are offloaded to hardware. A read that had to
    // gather across chunk boundaries did memcpy those bytes once; count it.
    fetch_count_->Increment();
    fetch_bytes_copied_->Add(gathered);
    fetch_bytes_avoided_->Add(4 * n);
    fetch_syscalls_->Add(1);
    return data;
  }
  // Four-copy path: perform the buffer copies for real so benches observe
  // the bandwidth cost (page cache -> app -> kernel -> socket -> NIC).
  std::string page_cache(data.value().ToString());
  std::string app_buffer(page_cache);
  std::string kernel_buffer(app_buffer);
  std::string socket_buffer(kernel_buffer);
  fetch_count_->Increment();
  fetch_bytes_copied_->Add(4 * n + gathered);
  fetch_syscalls_->Add(2);
  return PinnedSlice::Own(std::move(socket_buffer));
}

Result<std::string> Broker::Fetch(const std::string& topic, int partition,
                                  int64_t offset, int64_t max_bytes) {
  auto pinned = FetchPinned(topic, partition, offset, max_bytes);
  if (!pinned.ok()) return pinned.status();
  return pinned.value().ToString();
}

void Broker::FlushAll() {
  MutexLock lock(&mu_);
  for (auto& [key, log] : logs_) log->Flush();
}

int Broker::EnforceRetention() {
  MutexLock lock(&mu_);
  int deleted = 0;
  for (auto& [key, log] : logs_) deleted += log->DeleteExpiredSegments();
  return deleted;
}

void Broker::SetQuotaEnforcing(bool enforcing) {
  produce_quota_.set_enforcing(enforcing);
}

int64_t Broker::quota_rejects() const { return quota_rejects_->Value(); }

Result<std::string> Broker::HandleProduce(Slice request) {
  // Quota gate first: reject-before-work, the request is not even decoded.
  if (produce_quota_.enabled()) {
    const net::Address& caller = net::CallerIdentity();
    const std::string client = caller.empty() ? "anonymous" : caller;
    if (!produce_quota_.Admit(client, clock_->NowMicros())) {
      quota_rejects_->Increment();
      return Status::Overloaded("produce quota exceeded for " + client +
                                " at " + address_);
    }
  }
  std::string topic;
  int partition;
  Slice message_set;
  Status s = DecodeProduceRequest(request, &topic, &partition, &message_set);
  if (!s.ok()) return s;
  auto offset = Produce(topic, partition, message_set);
  if (!offset.ok()) return offset.status();
  return std::to_string(offset.value());
}

Result<PinnedSlice> Broker::HandleFetch(Slice request) {
  std::string topic;
  int partition;
  int64_t offset, max_bytes;
  Status s = DecodeFetchRequest(request, &topic, &partition, &offset,
                                &max_bytes);
  if (!s.ok()) return s;
  return FetchPinned(topic, partition, offset, max_bytes);
}

}  // namespace lidi::kafka
