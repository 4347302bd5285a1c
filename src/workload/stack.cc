#include "workload/stack.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "kafka/message.h"
#include "net/address.h"

namespace lidi::workload {

namespace {

// Voldemort: an N-node read-write cluster, one StoreClient per front-end
// shard (the per-client quota key at the server is the shard identity).
constexpr int kVoldemortNodes = 3;
constexpr int kVoldemortPartitions = 16;
constexpr int kReplication = 2;
constexpr int kRequiredReads = 1;
constexpr int kRequiredWrites = 1;
// Kafka: one broker, one activity topic, produced to over RPC (so the
// broker-side per-client quota applies).
constexpr int kKafkaPartitions = 4;
// Espresso: Helix-managed storage nodes behind a router.
constexpr int kEspressoNodes = 2;
constexpr int kEspressoPartitions = 4;
constexpr int kEspressoReplicas = 1;
// Front-end shards; matches SessionMixOptions::client_shards so the quota
// identities line up.
constexpr uint64_t kClientShards = 4;
// Step() polls the Databus pipeline (relay ingest + client delivery) every
// this many operations.
constexpr int64_t kDatabusPollEvery = 64;

/// Harness construction is all-or-nothing: a four-tier stack with a missing
/// topic, store, or schema would silently measure garbage. Abort loudly.
void MustOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FourTierStack setup: %s: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}
}  // namespace

FourTierStack::FourTierStack(net::Transport* transport, const Clock* clock,
                             StackOptions options)
    : transport_(transport), clock_(clock), options_(options) {
  // --- Voldemort: N nodes, uniform partition layout, quota'd servers. ---
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < kVoldemortNodes; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  metadata_ = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, kVoldemortPartitions));
  voldemort::VoldemortServerOptions vopts;
  vopts.quota_requests_per_sec = options_.voldemort_quota_per_sec;
  vopts.quota_burst = options_.quota_burst;
  vopts.replication_factor = kReplication;
  for (int i = 0; i < kVoldemortNodes; ++i) {
    voldemort_.push_back(std::make_unique<voldemort::VoldemortServer>(
        i, metadata_, transport_, vopts));
    MustOk(voldemort_.back()->AddStore("wl"), "voldemort AddStore");
  }
  voldemort::StoreDefinition def{"wl", kReplication,
                                 kRequiredReads,
                                 kRequiredWrites};
  for (uint64_t s = 0; s < kClientShards; ++s) {
    // One StoreClient per front-end shard: the client name is the caller
    // identity the Voldemort quota keys on.
    stores_.push_back(std::make_unique<voldemort::StoreClient>(
        "client-" + std::to_string(s), def, metadata_, transport_, clock_));
  }

  // --- Kafka: one broker, the activity topic. ---
  kafka::BrokerOptions bopts;
  bopts.quota_produce_per_sec = options_.kafka_produce_quota_per_sec;
  bopts.quota_burst = options_.quota_burst;
  broker_ = std::make_unique<kafka::Broker>(0, &zookeeper_, transport_, clock_,
                                            bopts);
  MustOk(broker_->CreateTopic("activity", kKafkaPartitions),
         "kafka CreateTopic");

  // --- Espresso: schema, Helix-managed nodes, admission-controlled router.
  MustOk(registry_.CreateDatabase(
             {"db", espresso::DatabaseSchema::Partitioning::kHash,
              kEspressoPartitions, kEspressoReplicas}),
         "espresso CreateDatabase");
  MustOk(registry_.CreateTable("db", {"docs", 1}), "espresso CreateTable");
  MustOk(registry_
             .PostDocumentSchema("db", "docs", R"({
    "type":"record","name":"Doc","fields":[
      {"name":"title","type":"string","indexed":true},
      {"name":"body","type":"string"},
      {"name":"rank","type":"int","indexed":true}]})")
             .status(),
         "espresso PostDocumentSchema");
  controller_ = std::make_unique<helix::HelixController>("espresso",
                                                         &zookeeper_);
  MustOk(controller_->AddResource({"db", kEspressoPartitions,
                                   kEspressoReplicas}),
         "helix AddResource");
  for (int i = 0; i < kEspressoNodes; ++i) {
    auto node = std::make_unique<espresso::StorageNode>(
        "esn-" + std::to_string(i), &registry_, &espresso_relay_, transport_,
        clock_);
    auto* raw = node.get();
    raw->SetMasterLookup([this](const std::string& db, int p) {
      return controller_->MasterOf(db, p);
    });
    MustOk(controller_
               ->ConnectParticipant(raw->name(),
                                    [raw](const helix::Transition& t) {
                                      return raw->HandleTransition(t);
                                    })
               .status(),
           "helix ConnectParticipant");
    espresso_nodes_.push_back(std::move(node));
  }
  controller_->RebalanceToConvergence();
  espresso::RouterOptions ropts;
  ropts.max_inflight = options_.router_max_inflight;
  router_ = std::make_unique<espresso::Router>("wl-router", &registry_,
                                               controller_.get(), transport_,
                                               ropts);

  // --- Databus: source-of-truth database -> relay -> consumer. ---
  MustOk(source_.CreateTable("profiles"), "databus source CreateTable");
  relay_ = std::make_unique<databus::Relay>("wl-relay", &source_, transport_);
  consumer_ = std::make_unique<databus::CallbackConsumer>(
      [this](const databus::Event&) {
        ++databus_delivered_;
        return Status::OK();
      });
  databus_client_ = std::make_unique<databus::DatabusClient>(
      "wl-dbus", "wl-relay", "", transport_, consumer_.get());
}

FourTierStack::~FourTierStack() = default;

Status FourTierStack::Step(const SessionMix::Op& op) {
  ++steps_;
  switch (op.user % 4) {
    case 0: return VoldemortStep(op);
    case 1: return KafkaStep(op);
    case 2: return EspressoStep(op);
    default: return DatabusStep(op);
  }
}

Status FourTierStack::VoldemortStep(const SessionMix::Op& op) {
  voldemort::StoreClient* client = store(op.user);
  if (op.is_read) {
    auto r = client->Get(op.key);
    if (!r.ok() && r.status().IsNotFound()) return Status::OK();
    return r.status();
  }
  return client->PutValue(op.key, value_rng_.Bytes(128));
}

Status FourTierStack::KafkaStep(const SessionMix::Op& op) {
  // Produce over RPC (not the in-process path) so the broker's per-client
  // quota sees the front-end shard as the caller.
  kafka::MessageSetBuilder builder;
  builder.Add(op.key + "=" + std::to_string(steps_));
  std::string request;
  kafka::EncodeProduceRequest(
      "activity", static_cast<int>(op.user % kKafkaPartitions),
      builder.Build(), &request);
  return transport_
      ->Call(op.client, broker_->address(), "kafka.produce", request)
      .status();
}

Status FourTierStack::EspressoStep(const SessionMix::Op& op) {
  const std::string uri = "/db/docs/u" + std::to_string(op.user);
  if (op.is_read) {
    auto r = router_->GetRecord(uri);
    if (!r.ok() && r.status().IsNotFound()) return Status::OK();
    return r.status();
  }
  auto doc = avro::Datum::Record("Doc");
  doc->SetField("title", avro::Datum::String(op.key));
  doc->SetField("body", avro::Datum::String(value_rng_.Bytes(64)));
  doc->SetField("rank", avro::Datum::Int(static_cast<int32_t>(op.session_op)));
  return router_->PutDocument(uri, *doc).status();
}

Status FourTierStack::DatabusStep(const SessionMix::Op& op) {
  if (!op.is_read) {
    auto scn = source_.Put("profiles", op.key, {{"val", op.client}});
    if (!scn.ok()) return scn.status();
  }
  // Drive the change pipeline on a cadence: relay ingests the binlog, the
  // client delivers to the consumer. (Production runs these on poller
  // threads; the workload steps them inline to stay deterministic in sim.)
  if (steps_ % kDatabusPollEvery == 0) {
    auto ingested = relay_->PollOnce();
    if (!ingested.ok()) return ingested.status();
    auto delivered = databus_client_->PollOnce();
    if (!delivered.ok()) return delivered.status();
  }
  return Status::OK();
}

int64_t FourTierStack::TotalOverloadRejects() const {
  int64_t total = broker_->quota_rejects();
  for (const auto& server : voldemort_) total += server->quota_rejects();
  total += router_->admission_rejects();
  return total;
}

void FourTierStack::SetQuotaEnforcing(bool enforcing) {
  broker_->SetQuotaEnforcing(enforcing);
  for (auto& server : voldemort_) server->SetQuotaEnforcing(enforcing);
}

int FourTierStack::AddVoldemortNode() {
  const int id = static_cast<int>(voldemort_.size());
  // Same staging as the sim's elastic expansion: the node joins owning zero
  // partitions, so routing is unchanged until a rebalance moves ownership
  // through the copy + pair-write + cutover protocol.
  metadata_->AddNode({id, net::MakeAddress(net::Tier::kVoldemort, id), 0});
  voldemort::VoldemortServerOptions vopts;
  vopts.quota_requests_per_sec = options_.voldemort_quota_per_sec;
  vopts.quota_burst = options_.quota_burst;
  vopts.replication_factor = kReplication;
  voldemort_.push_back(std::make_unique<voldemort::VoldemortServer>(
      id, metadata_, transport_, vopts));
  MustOk(voldemort_.back()->AddStore("wl"), "voldemort AddStore (elastic)");
  return id;
}

}  // namespace lidi::workload
