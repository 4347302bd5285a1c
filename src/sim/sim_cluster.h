#ifndef LIDI_SIM_SIM_CLUSTER_H_
#define LIDI_SIM_SIM_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "databus/bootstrap.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "espresso/replication.h"
#include "espresso/router.h"
#include "espresso/schema.h"
#include "espresso/storage_node.h"
#include "helix/helix.h"
#include "io/fault_fs.h"
#include "io/file.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "kafka/replication.h"
#include "net/network.h"
#include "sim/invariants.h"
#include "sim/schedule.h"
#include "sqlstore/database.h"
#include "voldemort/client.h"
#include "voldemort/rebalance.h"
#include "voldemort/server.h"
#include "zk/zookeeper.h"

namespace lidi::sim {

/// Deployment shape of the simulated cluster. Everything else about a run —
/// key choices, fault points, message delays — derives from `seed` and the
/// schedule, never from the wall clock or unseeded randomness.
struct SimOptions {
  uint64_t seed = 1;
  int voldemort_nodes = 3;
  int kafka_brokers = 2;
  int espresso_nodes = 2;
  int espresso_partitions = 4;
  /// TEST-ONLY: re-introduces the footprint of the historical sqlstore
  /// binlog bug (FaultFsOptions::truncate_keeps_bytes on the primary's disk:
  /// a failed write's torn bytes stay in the file) so the harness can
  /// demonstrate its no-acked-write-lost invariant re-finding a real,
  /// previously shipped defect.
  bool legacy_binlog_bug = false;
  /// When > 0, Voldemort servers and Kafka brokers apply a per-client
  /// token-bucket quota (requests/sec) so overload schedules can prove
  /// graceful degradation: shed operations are attempted-but-unacked, which
  /// the invariant contract already tolerates, while every acked write must
  /// still survive. Settle() switches enforcement off so end-of-chaos
  /// convergence is never throttled.
  double overload_quota_per_sec = 0;
  double overload_quota_burst = 4;
  /// TEST-ONLY kill switch for the rebalance safety mechanisms (ISSUE 10):
  /// disables Voldemort proxy-pair double-routing during partition handoff
  /// AND lets Kafka leadership transfers skip the follower catch-up gate.
  /// The rebalance acceptance tests run the same elastic schedule with this
  /// on and assert that invariants now FAIL, proving the safety paths are
  /// load-bearing and the tests have teeth. Never set outside tests.
  bool disable_handoff_safety = false;
};

/// Per-key write history the workload generators maintain and the invariant
/// checkers read. The contract under chaos: an acknowledged write must
/// survive; an unacknowledged attempt is indeterminate (it may have landed
/// on some replicas), so its value joins `allowed` and, when it came after
/// the last ack, relaxes the exact-match check to set membership.
struct KeyHistory {
  std::set<std::string> allowed;  // every value ever attempted for the key
  std::string last_acked;
  bool has_ack = false;
  bool attempted_after_ack = false;
  bool deleted = false;  // the last acked operation was a delete
};

/// A whole lidi deployment on one seeded Network, one virtual clock and
/// per-node fault filesystems: a Voldemort ring, Kafka brokers + a consumer
/// group, a primary sqlstore feeding Databus (relay + bootstrap + follower),
/// and an Espresso cluster (Helix + storage nodes + router), plus the
/// workload bookkeeping the invariant checkers verify.
///
/// Determinism contract: with the same SimOptions and Schedule, every run
/// produces a byte-identical trace(). All randomness flows from seeded
/// lidi::Random instances; time advances only via network virtual-time
/// stepping and kClockSkew events. Single-threaded by design — handlers run
/// synchronously in the caller's thread, so the event sequence IS the
/// global order.
class SimCluster {
 public:
  explicit SimCluster(SimOptions options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Applies one schedule event (total function: healing with nothing
  /// partitioned, restarting a running node etc. are no-ops, which is what
  /// lets the shrinker delete arbitrary subsequences). Appends one trace
  /// line and pumps the async tiers once.
  void ApplyEvent(const SimEvent& event);

  /// Applies every event in order.
  void RunSchedule(const Schedule& schedule);

  /// Ends the chaos: heals partitions, calms delay/IO faults, restarts
  /// everything crashed, then drives every async tier to convergence
  /// (relay/bootstrap/follower drains, espresso catch-up + rebalance,
  /// slop delivery, read-repair pass, kafka final drain). Invariants are
  /// checked against this settled state.
  void Settle();

  /// Runs the standard invariant catalogue (see invariants.h). Call after
  /// Settle().
  std::vector<InvariantViolation> CheckInvariants();

  /// RunSchedule + Settle + CheckInvariants on this (fresh) cluster.
  std::vector<InvariantViolation> RunToCompletion(const Schedule& schedule);

  /// Byte-stable log of every applied event and its observed effect — the
  /// determinism anchor (same options + schedule => identical trace).
  const std::string& trace() const { return trace_; }
  const SimOptions& options() const { return options_; }

  // --- live population sizes (elastic: kAddNode events grow the tiers, so
  // checkers must use these, never the *initial* counts in options()) ---

  int voldemort_node_count() const { return static_cast<int>(vservers_.size()); }
  int kafka_broker_count() const { return static_cast<int>(brokers_.size()); }
  int espresso_node_count() const { return static_cast<int>(esp_nodes_.size()); }

  // --- component access (invariant checkers and tests) ---

  net::Network& network() { return network_; }
  ManualClock& clock() { return clock_; }
  zk::ZooKeeper& zookeeper() { return zookeeper_; }
  sqlstore::Database* primary() { return primary_.get(); }
  databus::Relay* databus_relay() { return relay_.get(); }
  databus::BootstrapServer* databus_bootstrap() { return bootstrap_.get(); }
  databus::DatabusClient* follower() { return dbclient_.get(); }
  voldemort::StoreClient* voldemort_client() { return vclient_.get(); }
  voldemort::VoldemortServer* voldemort_server(int i) {
    return vservers_[static_cast<size_t>(i)].get();
  }
  kafka::Broker* broker(int i) {
    return brokers_[static_cast<size_t>(i)].get();
  }
  kafka::Consumer* consumer() { return consumer_.get(); }
  kafka::Producer* producer() { return producer_.get(); }
  espresso::Router* router() { return router_.get(); }
  espresso::EspressoRelay& espresso_relay() { return esp_relay_; }
  espresso::StorageNode* espresso_node(int i) {
    return esp_nodes_[static_cast<size_t>(i)].get();
  }
  helix::HelixController& helix() { return *helix_; }
  io::FaultFs* primary_disk() { return primary_disk_.get(); }
  voldemort::ClusterMetadata* voldemort_metadata() { return metadata_.get(); }
  voldemort::RebalanceExecutor* rebalancer() { return rebalancer_.get(); }
  kafka::ReplicatedTopicManager* replicated_topics() {
    return replicated_.get();
  }

  // --- workload bookkeeping (read by checkers) ---

  const std::map<std::string, KeyHistory>& voldemort_history() const {
    return voldemort_history_;
  }
  const std::map<std::string, KeyHistory>& primary_history() const {
    return primary_history_;
  }
  const std::map<std::string, KeyHistory>& espresso_history() const {
    return espresso_history_;
  }
  const std::set<std::string>& kafka_acked() const { return kafka_acked_; }
  const std::vector<std::string>& kafka_consumed() const {
    return kafka_consumed_;
  }
  /// Payloads acked on the replicated topic — the rebalance-ownership
  /// checker requires every one of them in the CURRENT leader's log.
  const std::set<std::string>& replicated_acked() const {
    return replicated_acked_;
  }
  /// The follower's materialized table (key -> encoded row), built from the
  /// Databus event stream.
  const std::map<std::string, std::string>& follower_rows() const {
    return follower_rows_;
  }
  /// Violations detected while the schedule ran (e.g. a committed kafka
  /// offset regressing) — folded into the checker output.
  const std::vector<InvariantViolation>& online_violations() const {
    return online_violations_;
  }

  static constexpr const char* kTopic = "events";
  /// Single-partition replicated topic exercised by the Kafka reassignment
  /// path (leadership only moves after follower catch-up).
  static constexpr const char* kReplicatedTopic = "revents";
  static constexpr const char* kVoldemortStore = "store";
  static constexpr const char* kPrimaryTable = "profiles";
  static constexpr const char* kEspressoDb = "db";
  static constexpr const char* kEspressoTable = "docs";

 private:
  // Crash/restart entity indexing: [0, V) voldemort nodes, [V, V+B) kafka
  // brokers, [V+B, V+B+E) espresso nodes, then primary, relay, bootstrap.
  int CrashableEntities() const;
  std::string EntityName(int entity) const;
  /// Returns a short effect description for the trace.
  std::string CrashEntity(int entity);
  std::string RestartEntity(int entity);

  void CrashVoldemort(int i);
  void RestartVoldemort(int i);
  void CrashBroker(int i);
  void RestartBroker(int i);
  void CrashEspresso(int i);
  void RestartEspresso(int i);
  void CrashPrimary();
  void RestartPrimary();

  // --- elasticity (kAddNode / kStartRebalance event legs) ---

  /// Grows the tier `target % 3` selects by one node; no-op with a trace
  /// note once that tier hit its growth cap (2x the initial deployment, so
  /// schedules stay bounded and shrinkable).
  std::string AddNodeEvent(int target);
  /// Steps the tier `target % 3` selects through up to `magnitude` live
  /// partition-movement actions (Voldemort copy/cutover steps, Kafka
  /// reassignment begin/sync/complete, Helix MASTER/SLAVE transitions).
  std::string StartRebalanceEvent(int target, int64_t magnitude);
  std::string AddVoldemortNode();
  std::string AddKafkaBroker();
  std::string AddEspressoNode();
  std::string StepVoldemortRebalance(int64_t magnitude);
  std::string StepKafkaReassignment(int64_t magnitude);
  std::string StepEspressoRebalance(int64_t magnitude);
  /// Fired by the RebalanceExecutor the moment ownership flips: reads every
  /// clean-acked key of the moved partition back from its NEW owner before
  /// any later repair could mask a hole (the online half of the
  /// rebalance-ownership invariant).
  void OnVoldemortCutover(const voldemort::RebalanceMove& move);
  /// One follower pull pass for the replicated topic on every live broker.
  void SyncReplicatedFollowers();
  /// Verifies the current replicated-topic leader's log still contains
  /// every acked payload; records an online violation otherwise.
  void CheckReplicatedLeaderComplete(const std::string& context);

  voldemort::VoldemortServerOptions VoldemortOptionsFor() const;
  kafka::BrokerOptions BrokerOptionsFor(int i) const;
  sqlstore::BinlogOptions PrimaryBinlogOptions() const;
  void StartEspressoNode(int i);
  void RecreateRelay();

  /// One async pump: relay/bootstrap/follower poll, espresso catch-up.
  void Pump();

  /// Runs `ops` operations of workload family `family` (0 = voldemort
  /// put/get, 1 = kafka produce/consume, 2 = espresso document CRUD,
  /// 3 = primary-DB commits). Returns acked-op count for the trace.
  int64_t RunWorkload(int family, int64_t ops);
  int64_t WorkloadVoldemort(int64_t ops);
  int64_t WorkloadKafka(int64_t ops);
  int64_t WorkloadEspresso(int64_t ops);
  int64_t WorkloadPrimary(int64_t ops);

  void RecordAck(std::map<std::string, KeyHistory>* history,
                 const std::string& key, const std::string& value);
  void RecordAttempt(std::map<std::string, KeyHistory>* history,
                     const std::string& key, const std::string& value);

  /// Commits consumer offsets and verifies none regressed in Zookeeper.
  void CommitAndCheckOffsets();
  void ConsumePolledMessages(const std::vector<kafka::Message>& messages);

  void TraceLine(const SimEvent& event, const std::string& effect);

  const SimOptions options_;
  ManualClock clock_;
  Random rng_;
  obs::MetricsRegistry metrics_;
  net::Network network_;
  zk::ZooKeeper zookeeper_;

  std::unique_ptr<io::Fs> base_fs_;
  std::unique_ptr<io::FaultFs> primary_disk_;
  std::vector<std::unique_ptr<io::FaultFs>> broker_disks_;

  // Voldemort tier.
  std::shared_ptr<voldemort::ClusterMetadata> metadata_;
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> vservers_;
  std::unique_ptr<voldemort::StoreClient> vclient_;
  std::unique_ptr<voldemort::RebalanceExecutor> rebalancer_;

  // Kafka tier.
  std::vector<std::unique_ptr<kafka::Broker>> brokers_;
  std::unique_ptr<kafka::Producer> producer_;
  std::unique_ptr<kafka::Consumer> consumer_;
  std::unique_ptr<kafka::ReplicatedTopicManager> replicated_;

  // Primary DB + Databus tier.
  std::unique_ptr<sqlstore::Database> primary_;
  std::unique_ptr<databus::Relay> relay_;
  std::unique_ptr<databus::BootstrapServer> bootstrap_;
  std::unique_ptr<databus::Consumer> follower_consumer_;
  std::unique_ptr<databus::DatabusClient> dbclient_;
  bool primary_crashed_ = false;

  // Espresso tier.
  espresso::SchemaRegistry registry_;
  espresso::EspressoRelay esp_relay_;
  std::unique_ptr<helix::HelixController> helix_;
  std::vector<std::unique_ptr<espresso::StorageNode>> esp_nodes_;
  std::vector<zk::SessionId> esp_sessions_;
  std::unique_ptr<espresso::Router> router_;

  // Workload bookkeeping.
  std::map<std::string, KeyHistory> voldemort_history_;
  std::map<std::string, KeyHistory> primary_history_;
  std::map<std::string, KeyHistory> espresso_history_;
  std::set<std::string> kafka_acked_;
  std::set<std::string> replicated_acked_;
  std::vector<std::string> kafka_consumed_;
  std::map<std::string, int64_t> committed_offsets_;  // zk path -> offset
  std::map<std::string, std::string> follower_rows_;
  std::vector<InvariantViolation> online_violations_;
  int64_t kafka_seq_ = 0;
  int64_t value_seq_ = 0;
  int event_index_ = 0;
  std::string trace_;
};

/// Convenience for the property tests and the shrinker predicate: fresh
/// cluster with `options`, run the schedule to completion, return the
/// violations (and the trace via *trace when non-null).
std::vector<InvariantViolation> RunScheduleOnFreshCluster(
    const SimOptions& options, const Schedule& schedule,
    std::string* trace = nullptr);

}  // namespace lidi::sim

#endif  // LIDI_SIM_SIM_CLUSTER_H_
