#include "net/address.h"
#include "kafka/producer.h"

#include <algorithm>

#include "common/hash.h"
#include "kafka/broker.h"

namespace lidi::kafka {

Producer::Producer(std::string name, zk::ZooKeeper* zookeeper,
                   net::Transport* network, ProducerOptions options)
    : name_(std::move(name)),
      zookeeper_(zookeeper),
      network_(network),
      options_(std::move(options)),
      session_(zookeeper->CreateSession()),
      rng_(options_.seed) {}

// Closing the session drops every watch the partition cache left.
Producer::~Producer() { zookeeper_->CloseSession(session_); }

Result<std::vector<TopicPartition>> Producer::PartitionsOf(
    const std::string& topic) {
  MutexLock lock(&mu_);
  auto partitions = PartitionsLocked(topic);
  if (!partitions.ok()) return partitions.status();
  return *partitions.value();
}

Result<const std::vector<TopicPartition>*> Producer::PartitionsLocked(
    const std::string& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end() ||
      std::any_of(it->second.watches.begin(), it->second.watches.end(),
                  [](const Watch& w) { return w.fired(); })) {
    it = topics_.try_emplace(topic).first;
    Status s = ReadPartitionsLocked(topic, &it->second);
    if (!s.ok()) {
      topics_.erase(it);
      return s;
    }
  }
  if (it->second.partitions.empty()) {
    return Status::NotFound("topic " + topic + " has no partitions");
  }
  return &it->second.partitions;
}

Status Producer::ReadPartitionsLocked(const std::string& topic,
                                      CachedTopic* cached) {
  // A watch that has not fired is still armed in Zookeeper: keep it rather
  // than stack a second one on the same znode.
  std::map<std::string, Watch> armed;
  for (const Watch& w : cached->watches) {
    if (!w.fired()) armed.emplace(w.path, w);
  }
  std::vector<Watch> watches;
  // The watcher to leave on `path`: none while an earlier one is armed.
  auto arm = [&](const std::string& path) -> zk::Watcher {
    auto it = armed.find(path);
    if (it != armed.end()) {
      watches.push_back(std::move(it->second));
      return nullptr;
    }
    watches.push_back(Watch{path});
    return [epoch = watches.back().epoch](const zk::WatchEvent&) {
      epoch->fetch_add(1);
    };
  };

  const std::string topic_path = options_.zk_root + "/brokers/topics/" + topic;
  auto brokers = zookeeper_->GetChildren(topic_path, arm(topic_path), session_);
  if (!brokers.ok()) {
    return Status::NotFound("topic " + topic + " not advertised");
  }
  std::vector<TopicPartition> partitions;
  for (const std::string& broker : brokers.value()) {
    const std::string ad_path = topic_path + "/" + broker;
    auto count = zookeeper_->Get(ad_path, arm(ad_path), session_);
    if (!count.ok()) {
      watches.pop_back();  // a missing znode takes no watch
      continue;
    }
    const int n = std::atoi(count.value().c_str());
    for (int p = 0; p < n; ++p) {
      partitions.push_back(TopicPartition{std::atoi(broker.c_str()), p});
    }
  }
  cached->partitions = std::move(partitions);
  cached->watches = std::move(watches);
  return Status::OK();
}

Status Producer::Send(const std::string& topic, Slice payload) {
  return Publish(topic, nullptr, payload);
}

Status Producer::Send(const std::string& topic, Slice key, Slice payload) {
  return Publish(topic, &key, payload);
}

Status Producer::Publish(const std::string& topic, const Slice* key,
                         Slice payload) {
  PendingRequest pending;
  {
    MutexLock lock(&mu_);
    auto partitions = PartitionsLocked(topic);
    if (!partitions.ok()) return partitions.status();
    const std::vector<TopicPartition>& tps = *partitions.value();
    const size_t pick = key == nullptr ? rng_.Uniform(tps.size())
                                       : Fnv1a64(*key) % tps.size();
    BufferLocked(topic, tps[pick], payload, &pending);
  }
  return Dispatch(pending);
}

void Producer::BufferLocked(const std::string& topic, const TopicPartition& tp,
                            Slice payload, PendingRequest* out) {
  auto it = batches_.find({topic, tp});
  if (it == batches_.end()) {
    it = batches_
             .emplace(std::make_pair(topic, tp),
                      MessageSetBuilder(options_.codec))
             .first;
  }
  it->second.Add(payload);
  messages_sent_.fetch_add(1);
  if (it->second.count() >= options_.batch_size) {
    BuildRequestLocked(topic, tp, out);
  }
}

void Producer::BuildRequestLocked(const std::string& topic,
                                  const TopicPartition& tp,
                                  PendingRequest* out) {
  auto it = batches_.find({topic, tp});
  if (it == batches_.end() || it->second.empty()) return;
  const std::string set = it->second.Build();  // resets the builder
  EncodeProduceRequest(topic, tp.partition, set, &out->request);
  bytes_on_wire_.fetch_add(static_cast<int64_t>(set.size()));
  out->send = true;
  out->tp = tp;
}

Status Producer::Dispatch(const PendingRequest& pending) {
  if (!pending.send) return Status::OK();
  auto r = network_->Call(name_, net::MakeAddress(net::Tier::kKafkaBroker, pending.tp.broker_id),
                          "kafka.produce", pending.request);
  return r.status();
}

Status Producer::Flush() {
  // Drain every batch under the lock, ship them all after releasing it: the
  // produce RPC must never run while holding the producer mutex (concurrent
  // Send()s would serialize behind broker round-trips).
  std::vector<PendingRequest> pendings;
  {
    MutexLock lock(&mu_);
    for (auto& [key, builder] : batches_) {
      PendingRequest pending;
      BuildRequestLocked(key.first, key.second, &pending);
      if (pending.send) pendings.push_back(std::move(pending));
    }
  }
  Status first_error;
  for (const PendingRequest& pending : pendings) {
    Status s = Dispatch(pending);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace lidi::kafka
