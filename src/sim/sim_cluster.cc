#include "net/address.h"
#include "sim/sim_cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "avro/datum.h"
#include "kafka/message.h"
#include "voldemort/cluster.h"
#include "voldemort/routing.h"
#include "voldemort/wire.h"

namespace lidi::sim {

namespace {

std::string EspressoUri(const std::string& key) {
  return std::string("/") + SimCluster::kEspressoDb + "/" +
         SimCluster::kEspressoTable + "/" + key;
}

/// Cluster construction is all-or-nothing: a sim with a missing store,
/// topic, or schema would "pass" every invariant vacuously. Abort loudly —
/// construction runs before any fault is injected, so failure here is a
/// bug, not a schedule outcome.
void MustOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "SimCluster setup: %s: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}

}  // namespace

SimCluster::SimCluster(SimOptions options)
    : options_(options),
      clock_(/*start_micros=*/1'000'000),
      rng_(options.seed),
      metrics_(&clock_),
      network_(options.seed, &metrics_, &clock_) {
  // Time is a pure function of the message sequence: every dispatched call
  // advances the virtual clock a little, so retention windows, ban
  // intervals and deadlines move deterministically with traffic.
  network_.EnableVirtualTimeStepping(&clock_, /*base_step_micros=*/50);

  base_fs_ = io::NewMemFs();
  io::FaultFsOptions primary_fs_options;
  primary_fs_options.seed = options_.seed ^ 0xd15cULL;
  primary_fs_options.truncate_keeps_bytes = options_.legacy_binlog_bug;
  primary_disk_ =
      std::make_unique<io::FaultFs>(base_fs_.get(), primary_fs_options);
  for (int i = 0; i < options_.kafka_brokers; ++i) {
    io::FaultFsOptions broker_fs_options;
    broker_fs_options.seed = options_.seed ^ (0xb40cULL +
                                              static_cast<uint64_t>(i));
    broker_disks_.push_back(
        std::make_unique<io::FaultFs>(base_fs_.get(), broker_fs_options));
  }

  // Voldemort ring.
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < options_.voldemort_nodes; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  metadata_ = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 12));
  for (int i = 0; i < options_.voldemort_nodes; ++i) {
    vservers_.push_back(std::make_unique<voldemort::VoldemortServer>(
        i, metadata_, &network_, VoldemortOptionsFor()));
    MustOk(vservers_.back()->AddStore(kVoldemortStore), "voldemort AddStore");
  }
  rebalancer_ = std::make_unique<voldemort::RebalanceExecutor>(
      kVoldemortStore, metadata_, &network_);
  rebalancer_->SetCutoverHook(
      [this](const voldemort::RebalanceMove& move) {
        OnVoldemortCutover(move);
      });
  voldemort::StoreDefinition def;
  def.name = kVoldemortStore;
  def.replication_factor = std::min(3, options_.voldemort_nodes);
  def.required_reads = def.replication_factor >= 2 ? 2 : 1;
  def.required_writes = def.replication_factor >= 2 ? 2 : 1;
  vclient_ = std::make_unique<voldemort::StoreClient>(
      "sim-client", def, metadata_, &network_, &clock_);
  // The probe-on-heal path: a heal immediately re-probes banned replicas
  // instead of letting them sit out the rest of the ban interval.
  network_.AddHealListener(
      [this] { vclient_->failure_detector()->ProbeBannedNow(); });

  // Kafka brokers + producer + consumer group.
  for (int i = 0; i < options_.kafka_brokers; ++i) {
    brokers_.push_back(std::make_unique<kafka::Broker>(
        i, &zookeeper_, &network_, &clock_, BrokerOptionsFor(i)));
    MustOk(brokers_.back()->CreateTopic(kTopic, /*partitions=*/1),
           "kafka CreateTopic");
  }
  replicated_ = std::make_unique<kafka::ReplicatedTopicManager>(&zookeeper_,
                                                                &network_);
  replicated_->set_allow_unsafe_transfer(options_.disable_handoff_safety);
  std::vector<kafka::Broker*> replica_brokers;
  for (auto& broker : brokers_) replica_brokers.push_back(broker.get());
  MustOk(replicated_->CreateReplicatedTopic(kReplicatedTopic, /*partitions=*/1,
                                            replica_brokers),
         "kafka CreateReplicatedTopic");
  kafka::ProducerOptions producer_options;
  producer_options.seed = options_.seed ^ 0x9a0dULL;
  producer_ = std::make_unique<kafka::Producer>("producer", &zookeeper_,
                                                &network_, producer_options);
  consumer_ = std::make_unique<kafka::Consumer>("consumer-0", "sim-group",
                                                &zookeeper_, &network_);
  MustOk(consumer_->Subscribe(kTopic), "kafka consumer Subscribe");

  // Primary DB -> Databus pipeline.
  primary_ =
      std::make_unique<sqlstore::Database>("primary", PrimaryBinlogOptions());
  MustOk(primary_->CreateTable(kPrimaryTable), "primary CreateTable");
  RecreateRelay();
  bootstrap_ = std::make_unique<databus::BootstrapServer>("bootstrap", "relay",
                                                          &network_);
  follower_consumer_ = std::make_unique<databus::CallbackConsumer>(
      [this](const databus::Event& event) {
        if (event.op == databus::Event::Op::kDelete) {
          follower_rows_.erase(event.key);
        } else {
          follower_rows_[event.key] = event.payload;
        }
        return Status::OK();
      });
  databus::ClientOptions client_options;
  client_options.max_event_retries = 10;
  dbclient_ = std::make_unique<databus::DatabusClient>(
      "follower", "relay", "bootstrap", &network_, follower_consumer_.get(),
      client_options);

  // Espresso cluster.
  MustOk(registry_.CreateDatabase(
             {kEspressoDb, espresso::DatabaseSchema::Partitioning::kHash,
              options_.espresso_partitions, 2}),
         "espresso CreateDatabase");
  MustOk(registry_.CreateTable(kEspressoDb, {kEspressoTable, 1}),
         "espresso CreateTable");
  MustOk(registry_
             .PostDocumentSchema(kEspressoDb, kEspressoTable, R"({
    "type":"record","name":"Doc","fields":[{"name":"title","type":"string"}]})")
             .status(),
         "espresso PostDocumentSchema");
  helix_ = std::make_unique<helix::HelixController>("espresso", &zookeeper_);
  MustOk(helix_->AddResource({kEspressoDb, options_.espresso_partitions, 2}),
         "helix AddResource");
  esp_nodes_.resize(static_cast<size_t>(options_.espresso_nodes));
  esp_sessions_.resize(static_cast<size_t>(options_.espresso_nodes), 0);
  for (int i = 0; i < options_.espresso_nodes; ++i) StartEspressoNode(i);
  helix_->RebalanceToConvergence();
  router_ = std::make_unique<espresso::Router>("router", &registry_,
                                               helix_.get(), &network_);
}

SimCluster::~SimCluster() {
  // The heal listener captures `this`; make sure nothing can fire it while
  // members are being torn down.
  network_.ClearHealListeners();
}

voldemort::VoldemortServerOptions SimCluster::VoldemortOptionsFor() const {
  voldemort::VoldemortServerOptions options;
  options.quota_requests_per_sec = options_.overload_quota_per_sec;
  options.quota_burst = options_.overload_quota_burst;
  options.disable_handoff_pairing = options_.disable_handoff_safety;
  // Must match the client StoreDefinition built in the constructor: the
  // server walks the N-wide preference list for partition fetches, handoff
  // pairing, and slop re-resolution.
  options.replication_factor = std::min(3, options_.voldemort_nodes);
  return options;
}

kafka::BrokerOptions SimCluster::BrokerOptionsFor(int i) const {
  kafka::BrokerOptions options;
  options.log.data_dir = "/broker" + std::to_string(i);
  options.log.fs = broker_disks_[static_cast<size_t>(i)].get();
  // Durable acks: every produce is flushed and fdatasync'd before the
  // response, so an acknowledged message survives a broker power loss —
  // the contract the no-acked-message-lost invariant checks.
  options.log.sync = io::SyncPolicy::kAlways;
  options.log.flush_interval_messages = 1;
  // Group commit on the produce path: single-threaded under the simulated
  // clock every producer leads its own batch, so the semantics match the
  // inline sync — but the schedules drive the same staged-write/covering-
  // sync/crash interleavings production multi-producer brokers hit.
  options.log.group_commit = true;
  options.quota_produce_per_sec = options_.overload_quota_per_sec;
  options.quota_burst = options_.overload_quota_burst;
  return options;
}

sqlstore::BinlogOptions SimCluster::PrimaryBinlogOptions() const {
  sqlstore::BinlogOptions options;
  options.data_dir = "/primary";
  options.fs = primary_disk_.get();
  options.sync = io::SyncPolicy::kAlways;
  options.group_commit = true;
  return options;
}

void SimCluster::StartEspressoNode(int i) {
  const std::string name = "esn-" + std::to_string(i);
  auto node = std::make_unique<espresso::StorageNode>(
      name, &registry_, &esp_relay_, &network_, &clock_);
  espresso::StorageNode* raw = node.get();
  raw->SetMasterLookup([this](const std::string& database, int partition) {
    return helix_->MasterOf(database, partition);
  });
  auto session = helix_->ConnectParticipant(
      name,
      [raw](const helix::Transition& t) { return raw->HandleTransition(t); });
  esp_sessions_[static_cast<size_t>(i)] = session.ok() ? session.value() : 0;
  esp_nodes_[static_cast<size_t>(i)] = std::move(node);
}

void SimCluster::RecreateRelay() {
  relay_ = std::make_unique<databus::Relay>("relay", primary_.get(),
                                            &network_);
}

// ---------------------------------------------------------------------------
// Crash / restart entry points per tier.
// ---------------------------------------------------------------------------

int SimCluster::CrashableEntities() const {
  // Live population sizes, not options_: kAddNode events grow the tiers and
  // the new nodes must be crashable (and restartable) like any other.
  return voldemort_node_count() + kafka_broker_count() +
         espresso_node_count() + 3;  // primary, relay, bootstrap
}

std::string SimCluster::EntityName(int entity) const {
  if (entity < voldemort_node_count()) {
    return net::MakeAddress(net::Tier::kVoldemort, entity);
  }
  entity -= voldemort_node_count();
  if (entity < kafka_broker_count()) {
    return "broker-" + std::to_string(entity);
  }
  entity -= kafka_broker_count();
  if (entity < espresso_node_count()) {
    return "esn-" + std::to_string(entity);
  }
  entity -= espresso_node_count();
  return entity == 0 ? "primary" : entity == 1 ? "relay" : "bootstrap";
}

std::string SimCluster::CrashEntity(int entity) {
  const std::string name = EntityName(entity);
  int index = entity;
  if (index < voldemort_node_count()) {
    if (!network_.IsNodeUp(net::MakeAddress(net::Tier::kVoldemort, index))) {
      return "noop (" + name + " already down)";
    }
    CrashVoldemort(index);
    return "crash " + name;
  }
  index -= voldemort_node_count();
  if (index < kafka_broker_count()) {
    if (brokers_[static_cast<size_t>(index)] == nullptr) {
      return "noop (" + name + " already down)";
    }
    CrashBroker(index);
    return "crash " + name;
  }
  index -= kafka_broker_count();
  if (index < espresso_node_count()) {
    if (esp_nodes_[static_cast<size_t>(index)] == nullptr) {
      return "noop (" + name + " already down)";
    }
    CrashEspresso(index);
    return "crash " + name;
  }
  index -= espresso_node_count();
  if (index == 0) {
    if (primary_crashed_) return "noop (primary already down)";
    CrashPrimary();
    return "crash primary";
  }
  if (index == 1) {
    if (relay_ == nullptr) return "noop (relay already down)";
    relay_.reset();
    return "crash relay";
  }
  if (bootstrap_ == nullptr) return "noop (bootstrap already down)";
  bootstrap_.reset();
  return "crash bootstrap";
}

std::string SimCluster::RestartEntity(int entity) {
  const std::string name = EntityName(entity);
  int index = entity;
  if (index < voldemort_node_count()) {
    if (network_.IsNodeUp(net::MakeAddress(net::Tier::kVoldemort, index))) {
      return "noop (" + name + " already up)";
    }
    RestartVoldemort(index);
    return "restart " + name;
  }
  index -= voldemort_node_count();
  if (index < kafka_broker_count()) {
    if (brokers_[static_cast<size_t>(index)] != nullptr) {
      return "noop (" + name + " already up)";
    }
    RestartBroker(index);
    return "restart " + name;
  }
  index -= kafka_broker_count();
  if (index < espresso_node_count()) {
    if (esp_nodes_[static_cast<size_t>(index)] != nullptr) {
      return "noop (" + name + " already up)";
    }
    RestartEspresso(index);
    return "restart " + name;
  }
  index -= espresso_node_count();
  if (index == 0) {
    if (!primary_crashed_) return "noop (primary already up)";
    RestartPrimary();
    return "restart primary";
  }
  if (index == 1) {
    if (relay_ != nullptr) return "noop (relay already up)";
    RecreateRelay();
    return "restart relay";
  }
  if (bootstrap_ != nullptr) return "noop (bootstrap already up)";
  bootstrap_ = std::make_unique<databus::BootstrapServer>("bootstrap", "relay",
                                                          &network_);
  return "restart bootstrap";
}

void SimCluster::CrashVoldemort(int i) {
  // Omission crash: the node object (and its in-memory engine) survives, the
  // network just stops delivering — quorum masks the outage and slops /
  // read repair reconverge it after SetNodeUp.
  network_.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, i));
}

void SimCluster::RestartVoldemort(int i) {
  network_.SetNodeUp(net::MakeAddress(net::Tier::kVoldemort, i));
  // Restart is heal-like for the failure detector: re-admit the node now
  // instead of waiting out the remainder of its ban interval.
  vclient_->failure_detector()->ProbeBannedNow();
}

void SimCluster::CrashBroker(int i) {
  // Process death first (handlers unregistered, zk ephemerals dropped), then
  // power loss on its disk. Restart recovers the partition logs from the
  // durable prefix.
  brokers_[static_cast<size_t>(i)].reset();
  broker_disks_[static_cast<size_t>(i)]->CrashNow();
}

void SimCluster::RestartBroker(int i) {
  // discard-ok: mid-schedule restart; a failed disk restart leaves FaultFs
  // crashed and the broker's recovery/produce path reports it from there.
  (void)broker_disks_[static_cast<size_t>(i)]->Restart();
  brokers_[static_cast<size_t>(i)] = std::make_unique<kafka::Broker>(
      i, &zookeeper_, &network_, &clock_, BrokerOptionsFor(i));
  // discard-ok: re-advertisement after restart; on failure produces to the
  // topic fail visibly and those messages are simply never acked.
  (void)brokers_[static_cast<size_t>(i)]->CreateTopic(kTopic,
                                                      /*partitions=*/1);
  // Re-open the replicated-topic logs too so the durable prefix recovers:
  // a restarted replica must resume from its flushed bytes, or the
  // reassignment catch-up gate would compare against an empty log.
  // discard-ok: same visibility argument as the re-advertisement above.
  (void)brokers_[static_cast<size_t>(i)]->CreateTopic(kReplicatedTopic,
                                                      /*partitions=*/1);
}

void SimCluster::CrashEspresso(int i) {
  const std::string name = "esn-" + std::to_string(i);
  // Drop the transition handler before the object dies, then let the
  // controller fail the partitions over to the surviving replicas.
  helix_->DisconnectParticipant(name, esp_sessions_[static_cast<size_t>(i)]);
  esp_nodes_[static_cast<size_t>(i)].reset();
  helix_->RebalanceToConvergence();
}

void SimCluster::RestartEspresso(int i) {
  StartEspressoNode(i);
  // OFFLINE->SLAVE bootstraps from the current master's snapshot (when one
  // is reachable), then catches up from the per-partition relay timelines.
  helix_->RebalanceToConvergence();
  if (esp_nodes_[static_cast<size_t>(i)] != nullptr) {
    esp_nodes_[static_cast<size_t>(i)]->CatchUpAll();
  }
}

void SimCluster::CrashPrimary() {
  // Power loss on the primary's disk: the Database object survives but every
  // commit fails from here on (nothing is acknowledged on a dead disk).
  primary_crashed_ = true;
  primary_disk_->CrashNow();
}

void SimCluster::RestartPrimary() {
  if (!primary_crashed_) return;
  // The relay holds a pointer into the old Database; tear it down first. A
  // relay is stateless (paper III.D) — the recreated one re-pulls from SCN 0.
  relay_.reset();
  primary_.reset();
  // discard-ok: mid-schedule restart; a failed disk restart keeps commits
  // failing, which the acked-row invariants already account for.
  (void)primary_disk_->Restart();
  primary_ =
      std::make_unique<sqlstore::Database>("primary", PrimaryBinlogOptions());
  // discard-ok: re-creating the table after a crash; AlreadyExists is the
  // normal case and a real failure shows up as failed Puts immediately.
  (void)primary_->CreateTable(kPrimaryTable);
  primary_->ReplayBinlog();
  RecreateRelay();
  primary_crashed_ = false;
}

// ---------------------------------------------------------------------------
// Elasticity: kAddNode / kStartRebalance event legs.
// ---------------------------------------------------------------------------

std::string SimCluster::AddNodeEvent(int target) {
  switch (target % 3) {
    case 0: return AddVoldemortNode();
    case 1: return AddKafkaBroker();
    default: return AddEspressoNode();
  }
}

std::string SimCluster::StartRebalanceEvent(int target, int64_t magnitude) {
  switch (target % 3) {
    case 0: return StepVoldemortRebalance(magnitude);
    case 1: return StepKafkaReassignment(magnitude);
    default: return StepEspressoRebalance(magnitude);
  }
}

std::string SimCluster::AddVoldemortNode() {
  const int id = voldemort_node_count();
  if (id >= 2 * options_.voldemort_nodes) {
    return "noop (voldemort at growth cap)";
  }
  // The node joins the ring owning zero partitions; ownership moves only
  // through the rebalance executor's copy + pair-write + cutover protocol.
  metadata_->AddNode({id, net::MakeAddress(net::Tier::kVoldemort, id), 0});
  vservers_.push_back(std::make_unique<voldemort::VoldemortServer>(
      id, metadata_, &network_, VoldemortOptionsFor()));
  MustOk(vservers_.back()->AddStore(kVoldemortStore),
         "voldemort AddStore (elastic)");
  return "add voldemort node " + std::to_string(id);
}

std::string SimCluster::AddKafkaBroker() {
  const int id = kafka_broker_count();
  if (id >= 2 * options_.kafka_brokers) {
    return "noop (kafka at growth cap)";
  }
  io::FaultFsOptions broker_fs_options;
  broker_fs_options.seed =
      options_.seed ^ (0xb40cULL + static_cast<uint64_t>(id));
  broker_disks_.push_back(
      std::make_unique<io::FaultFs>(base_fs_.get(), broker_fs_options));
  brokers_.push_back(std::make_unique<kafka::Broker>(
      id, &zookeeper_, &network_, &clock_, BrokerOptionsFor(id)));
  // Advertising kTopic adds a partition to the shared topic: the consumer's
  // topic watch fires and its next Poll rebalances onto the new broker.
  // discard-ok: a failed advertisement means produces never route here and
  // nothing is acked against the new broker.
  (void)brokers_.back()->CreateTopic(kTopic, /*partitions=*/1);
  return "add kafka broker " + std::to_string(id);
}

std::string SimCluster::AddEspressoNode() {
  const int id = espresso_node_count();
  if (id >= 2 * options_.espresso_nodes) {
    return "noop (espresso at growth cap)";
  }
  esp_nodes_.resize(static_cast<size_t>(id) + 1);
  esp_sessions_.resize(static_cast<size_t>(id) + 1, 0);
  // Deliberately staged: the participant connects here, but mastership only
  // moves when kStartRebalance (or Settle) steps the Helix pipeline — so
  // chaos schedules can interleave traffic with every transition.
  StartEspressoNode(id);
  return "add espresso node esn-" + std::to_string(id);
}

std::string SimCluster::StepVoldemortRebalance(int64_t magnitude) {
  int steps = 0;
  for (int64_t i = 0; i < magnitude; ++i) {
    if (!rebalancer_->Step()) break;
    ++steps;
  }
  return "voldemort rebalance steps=" + std::to_string(steps) +
         " completed=" + std::to_string(rebalancer_->moves_completed()) +
         " aborted=" + std::to_string(rebalancer_->moves_aborted());
}

std::string SimCluster::StepKafkaReassignment(int64_t magnitude) {
  int actions = 0;
  std::string note = "idle";
  for (int64_t i = 0; i < magnitude; ++i) {
    auto pending = replicated_->ReassignmentTargetOf(kReplicatedTopic, 0);
    if (!pending.ok()) {
      auto leader = replicated_->LeaderOf(kReplicatedTopic, 0);
      if (!leader.ok()) break;
      // Deterministic target pick: the highest-id live broker that does not
      // already lead — i.e. the most recently added one.
      kafka::Broker* chosen = nullptr;
      for (int b = kafka_broker_count() - 1; b >= 0; --b) {
        if (b == leader.value() || brokers_[static_cast<size_t>(b)] == nullptr) {
          continue;
        }
        chosen = brokers_[static_cast<size_t>(b)].get();
        break;
      }
      if (chosen == nullptr) {
        note = "no live reassignment target";
        break;
      }
      Status begun =
          replicated_->BeginReassignment(kReplicatedTopic, 0, chosen);
      if (!begun.ok()) {
        note = "begin failed";
        break;
      }
      ++actions;
      note = "begin ->broker-" + std::to_string(chosen->id());
    } else {
      SyncReplicatedFollowers();
      auto done = replicated_->TryCompleteReassignment(kReplicatedTopic, 0);
      ++actions;
      if (done.ok() && done.value()) {
        note = "leader ->broker-" + std::to_string(pending.value());
        CheckReplicatedLeaderComplete("kafka leadership transfer");
      } else {
        note = "catch-up ->broker-" + std::to_string(pending.value());
      }
    }
  }
  return "kafka reassignment actions=" + std::to_string(actions) + " " + note;
}

std::string SimCluster::StepEspressoRebalance(int64_t magnitude) {
  const int executed = helix_->RebalanceOnce(static_cast<int>(magnitude));
  for (auto& node : esp_nodes_) {
    if (node != nullptr) node->CatchUpAll();
  }
  return "espresso rebalance transitions=" + std::to_string(executed) +
         " epoch=" + std::to_string(helix_->RoutingEpoch());
}

void SimCluster::OnVoldemortCutover(const voldemort::RebalanceMove& move) {
  // The online half of the rebalance-ownership invariant: the instant
  // ownership flips, every clean-acked key of the moved partition must
  // already be readable at the NEW owner — checked before slop pushes,
  // read repair or Settle() can heal a pair-write hole (a post-settle-only
  // check would pass even with pairing disabled).
  const voldemort::RoutingView view = metadata_->Snapshot();
  if (view.cluster.num_partitions() == 0) return;
  auto routing = voldemort::NewConsistentRoutingStrategy(&view.cluster, 1);
  for (const auto& [key, h] : voldemort_history_) {
    if (!h.has_ack || h.attempted_after_ack) continue;
    if (routing->MasterPartition(key) != move.partition) continue;
    std::string request;
    voldemort::EncodeGetRequest(kVoldemortStore, key, &request);
    auto response = network_.Call(
        "sim-rebalance-check",
        net::MakeAddress(net::Tier::kVoldemort, move.to_node),
        "v.get-noredirect", request);
    // An unreachable new owner is a liveness outcome the settle-time
    // checkers judge; only a successful read that lacks the acked value is
    // a handoff hole.
    if (!response.ok()) continue;
    auto versions = voldemort::DecodeVersionedList(response.value());
    if (!versions.ok()) continue;
    bool found = false;
    for (const auto& versioned : versions.value()) {
      if (versioned.value == h.last_acked) {
        found = true;
        break;
      }
    }
    if (found) continue;
    // A quorum write acked while the master was down leaves the acked value
    // on replicas/slops only; the copy faithfully moved everything the
    // source had, and anti-entropy heals the rest (settle-time checkers
    // judge that). Only a value the SOURCE holds but the destination lacks
    // is a copy/pair-write hole — which is precisely what disabling the
    // handoff pair produces.
    auto source_response = network_.Call(
        "sim-rebalance-check",
        net::MakeAddress(net::Tier::kVoldemort, move.from_node),
        "v.get-noredirect", request);
    if (!source_response.ok()) continue;
    auto source_versions = voldemort::DecodeVersionedList(source_response.value());
    if (!source_versions.ok()) continue;
    bool source_has_it = false;
    for (const auto& versioned : source_versions.value()) {
      if (versioned.value == h.last_acked) {
        source_has_it = true;
        break;
      }
    }
    if (source_has_it) {
      online_violations_.push_back(
          {"rebalance-ownership",
           "voldemort key " + key + " acked '" + h.last_acked +
               "' missing at new owner node " + std::to_string(move.to_node) +
               " at partition " + std::to_string(move.partition) +
               " cutover"});
    }
  }
}

void SimCluster::SyncReplicatedFollowers() {
  for (auto& broker : brokers_) {
    if (broker == nullptr) continue;
    kafka::ReplicaFetcher fetcher(broker.get(), replicated_.get(), &network_);
    // discard-ok: a follower that cannot reach the leader simply stays
    // behind; the catch-up gate keeps leadership where the data is.
    (void)fetcher.SyncOnce(kReplicatedTopic, /*partitions=*/1);
  }
}

void SimCluster::CheckReplicatedLeaderComplete(const std::string& context) {
  std::set<std::string> present;
  int64_t offset = 0;
  for (;;) {
    auto data = replicated_->FetchFromLeader("sim-rebalance-check",
                                             kReplicatedTopic, 0, offset,
                                             1 << 20);
    if (!data.ok()) return;  // leader unreachable: cannot assess, skip
    if (data.value().empty()) break;
    kafka::MessageSetIterator it(data.value(), offset);
    kafka::Message message;
    while (it.Next(&message)) present.insert(message.payload);
    if (it.next_fetch_offset() <= offset) break;
    offset = it.next_fetch_offset();
  }
  for (const std::string& payload : replicated_acked_) {
    if (present.count(payload) == 0) {
      online_violations_.push_back(
          {"rebalance-ownership",
           "replicated-topic message '" + payload +
               "' missing from the current leader's log at " + context});
    }
  }
}

// ---------------------------------------------------------------------------
// Event application.
// ---------------------------------------------------------------------------

void SimCluster::ApplyEvent(const SimEvent& event) {
  std::string effect;
  switch (event.kind) {
    case EventKind::kPartition: {
      std::vector<net::Address> candidates;
      for (int i = 0; i < voldemort_node_count(); ++i) {
        candidates.push_back(net::MakeAddress(net::Tier::kVoldemort, i));
      }
      for (int i = 0; i < kafka_broker_count(); ++i) {
        candidates.push_back(net::MakeAddress(net::Tier::kKafkaBroker, i));
      }
      for (int i = 0; i < espresso_node_count(); ++i) {
        candidates.push_back("esn-" + std::to_string(i));
      }
      candidates.push_back("relay");
      candidates.push_back("bootstrap");
      const size_t n = candidates.size();
      const size_t side = std::clamp<size_t>(
          static_cast<size_t>(std::max<int64_t>(event.magnitude, 1)), 1,
          n - 1);
      const size_t start = static_cast<size_t>(event.target) % n;
      std::set<net::Address> side_a;
      for (size_t k = 0; k < side; ++k) {
        side_a.insert(candidates[(start + k) % n]);
      }
      network_.PartitionOff(side_a);
      effect = "cut {";
      for (const net::Address& a : side_a) {
        if (effect.size() > 5) effect += ",";
        effect += a;
      }
      effect += "}";
      break;
    }
    case EventKind::kHeal:
      network_.Heal();
      effect = "heal";
      break;
    case EventKind::kCrashNode:
      effect = CrashEntity(event.target % CrashableEntities());
      break;
    case EventKind::kRestartNode:
      effect = RestartEntity(event.target % CrashableEntities());
      break;
    case EventKind::kClockSkew:
      clock_.AdvanceMicros(event.magnitude);
      effect = "advance clock " + std::to_string(event.magnitude) + "us";
      break;
    case EventKind::kDelayBurst:
      network_.SetDelayBurst(event.magnitude);
      effect = "delay burst <=" + std::to_string(event.magnitude) + "us";
      break;
    case EventKind::kDelayCalm:
      network_.SetDelayBurst(0);
      effect = "delay calm";
      break;
    case EventKind::kIoFaultBurst: {
      const double p =
          static_cast<double>(std::clamp<int64_t>(event.magnitude, 0, 1000)) /
          1000.0;
      primary_disk_->SetFaultProbabilities(p * 0.5, p * 0.3, p * 0.2);
      effect = "io faults " + std::to_string(event.magnitude) + "permille";
      break;
    }
    case EventKind::kIoFaultCalm:
      primary_disk_->SetFaultProbabilities(0, 0, 0);
      effect = "io calm";
      break;
    case EventKind::kWorkload: {
      const int family = event.target % 4;
      const int64_t ops = std::max<int64_t>(event.magnitude, 1);
      const int64_t acked = RunWorkload(family, ops);
      static constexpr const char* kFamilies[] = {"voldemort", "kafka",
                                                  "espresso", "primary"};
      effect = std::string(kFamilies[family]) + " ops=" +
               std::to_string(ops) + " acked=" + std::to_string(acked);
      break;
    }
    case EventKind::kAddNode:
      effect = AddNodeEvent(event.target);
      break;
    case EventKind::kStartRebalance:
      effect = StartRebalanceEvent(event.target,
                                   std::max<int64_t>(event.magnitude, 1));
      break;
  }
  TraceLine(event, effect);
  Pump();
}

void SimCluster::RunSchedule(const Schedule& schedule) {
  for (const SimEvent& event : schedule.events) ApplyEvent(event);
}

void SimCluster::TraceLine(const SimEvent& event, const std::string& effect) {
  trace_ += "[" + std::to_string(event_index_++) + "] " + FormatEvent(event) +
            " -> " + effect + "\n";
}

void SimCluster::Pump() {
  // One best-effort turn of the change pipeline between fault events.
  // Failures here are schedule outcomes (partitions, crashed relays) that
  // Settle() later drains; the lag invariants judge the end state, not
  // each pump.
  if (relay_ != nullptr) (void)relay_->PollOnce();  // discard-ok: see above
  if (bootstrap_ != nullptr) {
    (void)bootstrap_->PollRelayOnce();  // discard-ok: see above
    bootstrap_->ApplyLogOnce();
  }
  if (dbclient_ != nullptr && relay_ != nullptr) {
    (void)dbclient_->PollOnce();  // discard-ok: see above
  }
  for (auto& node : esp_nodes_) {
    if (node != nullptr) node->CatchUpAll();
  }
}

// ---------------------------------------------------------------------------
// Workload generators.
// ---------------------------------------------------------------------------

void SimCluster::RecordAttempt(std::map<std::string, KeyHistory>* history,
                               const std::string& key,
                               const std::string& value) {
  KeyHistory& h = (*history)[key];
  h.allowed.insert(value);
  if (h.has_ack) h.attempted_after_ack = true;
}

void SimCluster::RecordAck(std::map<std::string, KeyHistory>* history,
                           const std::string& key, const std::string& value) {
  KeyHistory& h = (*history)[key];
  h.last_acked = value;
  h.has_ack = true;
  h.attempted_after_ack = false;
  h.deleted = false;
}

int64_t SimCluster::RunWorkload(int family, int64_t ops) {
  switch (family) {
    case 0: return WorkloadVoldemort(ops);
    case 1: return WorkloadKafka(ops);
    case 2: return WorkloadEspresso(ops);
    default: return WorkloadPrimary(ops);
  }
}

int64_t SimCluster::WorkloadVoldemort(int64_t ops) {
  int64_t acked = 0;
  for (int64_t i = 0; i < ops; ++i) {
    const std::string key = "vk" + std::to_string(rng_.Uniform(16));
    const std::string value = "v" + std::to_string(value_seq_++);
    RecordAttempt(&voldemort_history_, key, value);
    if (vclient_->PutValue(key, value).ok()) {
      RecordAck(&voldemort_history_, key, value);
      ++acked;
    }
    // Interleave reads: they drive read repair and feed the failure
    // detector's success ratio.
    // discard-ok: the read is traffic, not an assertion; a failure under
    // faults is an expected outcome the convergence checker absorbs.
    (void)vclient_->Get("vk" + std::to_string(rng_.Uniform(16))).status();
  }
  return acked;
}

int64_t SimCluster::WorkloadKafka(int64_t ops) {
  int64_t acked = 0;
  for (int64_t i = 0; i < ops; ++i) {
    const std::string payload = "k" + std::to_string(kafka_seq_++);
    // A failed Send means the message never reached a broker (faults are
    // injected before the handler runs), so acked == appended exactly.
    if (producer_->Send(kTopic, payload).ok()) {
      kafka_acked_.insert(payload);
      ++acked;
    }
    // Replicated-topic leg: one message per op through the leader, so a
    // reassignment always races live produce traffic. Acked means the
    // leader flushed it; leadership may only move to a caught-up follower.
    const std::string rpayload = "rk" + std::to_string(kafka_seq_++);
    kafka::MessageSetBuilder builder;
    builder.Add(rpayload);
    if (replicated_
            ->ProduceToLeader("producer", kReplicatedTopic, 0, builder.Build())
            .ok()) {
      replicated_acked_.insert(rpayload);
    }
  }
  for (int round = 0; round < 2; ++round) {
    auto messages = consumer_->Poll(kTopic);
    if (messages.ok()) ConsumePolledMessages(messages.value());
  }
  CommitAndCheckOffsets();
  return acked;
}

void SimCluster::ConsumePolledMessages(
    const std::vector<kafka::Message>& messages) {
  for (const kafka::Message& message : messages) {
    kafka_consumed_.push_back(message.payload);
  }
}

void SimCluster::CommitAndCheckOffsets() {
  // discard-ok: a failed commit leaves the previously committed offsets in
  // place, which is exactly what the monotonicity check below verifies.
  (void)consumer_->CommitOffsets();
  const std::string dir = "/kafka/consumers/sim-group/offsets/" +
                          std::string(kTopic);
  auto children = zookeeper_.GetChildren(dir);
  if (!children.ok()) return;
  for (const std::string& child : children.value()) {
    const std::string path = dir + "/" + child;
    auto value = zookeeper_.Get(path);
    if (!value.ok()) continue;
    const int64_t offset = std::atoll(value.value().c_str());
    auto it = committed_offsets_.find(path);
    if (it != committed_offsets_.end() && offset < it->second) {
      online_violations_.push_back(
          {"kafka-offsets",
           "committed offset regressed at " + path + ": " +
               std::to_string(it->second) + " -> " + std::to_string(offset)});
    }
    committed_offsets_[path] = offset;
  }
}

int64_t SimCluster::WorkloadEspresso(int64_t ops) {
  int64_t acked = 0;
  for (int64_t i = 0; i < ops; ++i) {
    const uint64_t j = rng_.Uniform(8);
    const std::string key =
        "r" + std::to_string(j) + "/d" + std::to_string(j);
    const std::string uri = EspressoUri(key);
    KeyHistory& h = espresso_history_[key];
    if (rng_.Uniform(6) == 0 && h.has_ack && !h.deleted) {
      // Delete leg of the CRUD mix. An acked delete must read back NotFound;
      // a failed one leaves the document in an indeterminate state.
      h.allowed.insert("");
      if (h.has_ack) h.attempted_after_ack = true;
      if (router_->DeleteDocument(uri).ok()) {
        h.last_acked = "";
        h.has_ack = true;
        h.attempted_after_ack = false;
        h.deleted = true;
        ++acked;
      }
      continue;
    }
    const std::string title = "t" + std::to_string(value_seq_++);
    auto doc = avro::Datum::Record("Doc");
    doc->SetField("title", avro::Datum::String(title));
    RecordAttempt(&espresso_history_, key, title);
    if (router_->PutDocument(uri, *doc).ok()) {
      RecordAck(&espresso_history_, key, title);
      ++acked;
    }
    if (rng_.Uniform(3) == 0) {
      // discard-ok: background read traffic exercising the router under
      // faults; NotFound and routing errors are expected outcomes.
      (void)router_->GetDocument(EspressoUri(
          "r" + std::to_string(rng_.Uniform(8)) + "/d" + std::to_string(j)));
    }
  }
  return acked;
}

int64_t SimCluster::WorkloadPrimary(int64_t ops) {
  int64_t acked = 0;
  for (int64_t i = 0; i < ops; ++i) {
    const std::string key = "p" + std::to_string(rng_.Uniform(12));
    const std::string value = "v" + std::to_string(value_seq_++);
    RecordAttempt(&primary_history_, key, value);
    if (primary_->Put(kPrimaryTable, key, {{"v", value}}).ok()) {
      RecordAck(&primary_history_, key, value);
      ++acked;
    }
  }
  return acked;
}

// ---------------------------------------------------------------------------
// Settle + invariants.
// ---------------------------------------------------------------------------

void SimCluster::Settle() {
  network_.Heal();
  network_.SetDelayBurst(0);
  primary_disk_->SetFaultProbabilities(0, 0, 0);
  for (int entity = 0; entity < CrashableEntities(); ++entity) {
    RestartEntity(entity);
  }
  // Quotas off from here: shedding during the schedule was the experiment;
  // convergence (slop pushes, read repair, kafka drain) must not be
  // throttled. After the restart loop so recreated brokers are covered.
  for (auto& server : vservers_) server->SetQuotaEnforcing(false);
  for (auto& broker : brokers_) {
    if (broker != nullptr) broker->SetQuotaEnforcing(false);
  }
  // Drain in-flight elastic work now that everything is reachable: the
  // voldemort executor finishes (or aborts) pending migrations, and any
  // pending kafka reassignment completes once the target catches up.
  // discard-ok: a rebalance that still cannot converge leaves migrations
  // pending, which the rebalance-ownership checker reports explicitly.
  (void)rebalancer_->DriveToCompletion();
  for (int round = 0; round < 8; ++round) {
    auto pending = replicated_->ReassignmentTargetOf(kReplicatedTopic, 0);
    if (!pending.ok()) break;  // nothing pending
    SyncReplicatedFollowers();
    auto done = replicated_->TryCompleteReassignment(kReplicatedTopic, 0);
    if (done.ok() && done.value()) {
      CheckReplicatedLeaderComplete("settle-time reassignment completion");
      break;
    }
  }
  SyncReplicatedFollowers();
  for (int round = 0; round < 6; ++round) {
    // Repeated convergence rounds after the heal; a transiently failing
    // poll is retried next round, and the databus-lag invariant catches a
    // pipeline that never converges.
    if (relay_ != nullptr) (void)relay_->PollOnce();  // discard-ok: retried
    if (bootstrap_ != nullptr) {
      (void)bootstrap_->PollRelayOnce();  // discard-ok: retried next round
      bootstrap_->ApplyLogOnce();
    }
    if (dbclient_ != nullptr) {
      (void)dbclient_->DrainToHead();  // discard-ok: retried next round
    }
    helix_->RebalanceToConvergence();
    for (auto& node : esp_nodes_) {
      if (node != nullptr) node->CatchUpAll();
    }
    for (auto& server : vservers_) server->PushSlops();
  }
  // Final kafka drain: everything acked must now be consumable.
  int empty_rounds = 0;
  for (int round = 0; round < 400 && empty_rounds < 5; ++round) {
    auto messages = consumer_->Poll(kTopic);
    if (messages.ok() && !messages.value().empty()) {
      ConsumePolledMessages(messages.value());
      empty_rounds = 0;
    } else {
      ++empty_rounds;
    }
  }
  CommitAndCheckOffsets();
  // Read-repair pass: quorum reads propagate the dominant versions so the
  // convergence checker sees the fixed point.
  for (const auto& [key, history] : voldemort_history_) {
    // discard-ok: the quorum reads are run for their read-repair side
    // effect; the convergence checker then re-reads and judges the result.
    (void)vclient_->Get(key).status();
    (void)vclient_->Get(key).status();
  }
}

std::vector<InvariantViolation> SimCluster::CheckInvariants() {
  std::vector<InvariantViolation> out;
  for (auto& checker : StandardInvariants()) checker->Check(*this, &out);
  return out;
}

std::vector<InvariantViolation> SimCluster::RunToCompletion(
    const Schedule& schedule) {
  RunSchedule(schedule);
  Settle();
  return CheckInvariants();
}

std::vector<InvariantViolation> RunScheduleOnFreshCluster(
    const SimOptions& options, const Schedule& schedule, std::string* trace) {
  SimCluster cluster(options);
  auto violations = cluster.RunToCompletion(schedule);
  if (trace != nullptr) *trace = cluster.trace();
  return violations;
}

}  // namespace lidi::sim
