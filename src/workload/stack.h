#ifndef LIDI_WORKLOAD_STACK_H_
#define LIDI_WORKLOAD_STACK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "espresso/router.h"
#include "espresso/storage_node.h"
#include "helix/helix.h"
#include "kafka/broker.h"
#include "net/transport.h"
#include "sqlstore/database.h"
#include "voldemort/client.h"
#include "voldemort/server.h"
#include "workload/key_mix.h"
#include "zk/zookeeper.h"

namespace lidi::workload {

/// Overload-control knobs for the four-tier stack the open-loop driver
/// loads (the topology itself is fixed; see stack.cc). Quotas and budgets
/// default OFF so the stack behaves exactly like the pre-overload-control
/// fixtures unless a bench opts in.
struct StackOptions {
  double voldemort_quota_per_sec = 0;      // per client shard, 0 = off
  double kafka_produce_quota_per_sec = 0;  // per client shard, 0 = off
  double quota_burst = 16;
  int64_t router_max_inflight = 0;  // Espresso router admission, 0 = off
};

/// All four paper tiers wired over ONE transport (sim Network or
/// TcpTransport — the fixture never names a backend) plus the Databus
/// source-of-truth database. Step() dispatches a SessionMix operation to a
/// tier by user hash, so a single open-loop arrival schedule loads
/// Voldemort, Kafka, Espresso, and Databus at once.
class FourTierStack {
 public:
  FourTierStack(net::Transport* transport, const Clock* clock,
                StackOptions options = {});
  ~FourTierStack();

  FourTierStack(const FourTierStack&) = delete;
  FourTierStack& operator=(const FourTierStack&) = delete;

  /// Executes one workload operation. NotFound on a cold key is success (the
  /// mix reads keys it has not written yet); Overloaded passes through so
  /// the driver counts shed load.
  Status Step(const SessionMix::Op& op);

  /// Sum of quota rejections and dispatch sheds across every tier.
  int64_t TotalOverloadRejects() const;

  /// Events the Databus consumer has seen (pipeline liveness check).
  int64_t databus_delivered() const { return databus_delivered_; }

  /// Quota kill switch across all tiers (sim Settle support).
  void SetQuotaEnforcing(bool enforcing);

  /// Elastic ring expansion (the live-rebalance bench axis): adds one
  /// Voldemort node, owning zero partitions until a RebalanceExecutor moves
  /// some. Returns the new node id.
  int AddVoldemortNode();

  /// Ring metadata handle (shared with the stack's servers and clients) so
  /// a bench can drive a RebalanceExecutor against the live stack.
  const std::shared_ptr<voldemort::ClusterMetadata>& metadata() const {
    return metadata_;
  }

  net::Transport* transport() { return transport_; }
  voldemort::StoreClient* store(uint64_t shard) {
    return stores_[shard % stores_.size()].get();
  }
  kafka::Broker* broker() { return broker_.get(); }
  espresso::Router* router() { return router_.get(); }
  databus::DatabusClient* databus() { return databus_client_.get(); }

 private:
  Status VoldemortStep(const SessionMix::Op& op);
  Status KafkaStep(const SessionMix::Op& op);
  Status EspressoStep(const SessionMix::Op& op);
  Status DatabusStep(const SessionMix::Op& op);

  net::Transport* const transport_;
  const Clock* const clock_;
  const StackOptions options_;
  Random value_rng_{991};
  int64_t steps_ = 0;

  // Voldemort.
  std::shared_ptr<voldemort::ClusterMetadata> metadata_;
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> voldemort_;
  std::vector<std::unique_ptr<voldemort::StoreClient>> stores_;

  // Kafka.
  zk::ZooKeeper zookeeper_;
  std::unique_ptr<kafka::Broker> broker_;

  // Espresso.
  espresso::SchemaRegistry registry_;
  espresso::EspressoRelay espresso_relay_;
  std::unique_ptr<helix::HelixController> controller_;
  std::vector<std::unique_ptr<espresso::StorageNode>> espresso_nodes_;
  std::unique_ptr<espresso::Router> router_;

  // Databus: the source-of-truth database the relay tails.
  sqlstore::Database source_{"source"};
  std::unique_ptr<databus::Relay> relay_;
  std::unique_ptr<databus::CallbackConsumer> consumer_;
  std::unique_ptr<databus::DatabusClient> databus_client_;
  int64_t databus_delivered_ = 0;
};

}  // namespace lidi::workload

#endif  // LIDI_WORKLOAD_STACK_H_
