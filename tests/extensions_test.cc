// Tests for the paper's named future-work features, implemented as
// extensions: Kafka intra-cluster replication (V.D), Espresso global
// secondary indexes via an update-stream listener (IV.A), Databus
// declarative transformations (III.E), and the Voldemort read-only update
// stream (II.C).

#include <gtest/gtest.h>

#include <memory>

#include "avro/codec.h"
#include "common/clock.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "databus/multitenant.h"
#include "databus/transformation.h"
#include "espresso/global_index.h"
#include "espresso/router.h"
#include "espresso/storage_node.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "kafka/replication.h"
#include "net/address.h"
#include "net/network.h"
#include "sqlstore/database.h"
#include "voldemort/readonly_store.h"
#include "zk/zookeeper.h"

#include "status_test_util.h"

namespace lidi {
namespace {

// ---------------------------------------------------------------------------
// Kafka intra-cluster replication
// ---------------------------------------------------------------------------

class ReplicationTest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 4;

  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      brokers_.push_back(std::make_unique<kafka::Broker>(
          i, &zk_, &network_, &clock_, kafka::BrokerOptions{}));
    }
    manager_ =
        std::make_unique<kafka::ReplicatedTopicManager>(&zk_, &network_);
    ASSERT_TRUE(manager_
                    ->CreateReplicatedTopic(
                        "t", kPartitions,
                        {brokers_[0].get(), brokers_[1].get(),
                         brokers_[2].get()})
                    .ok());
    for (int i = 0; i < 3; ++i) {
      fetchers_.push_back(std::make_unique<kafka::ReplicaFetcher>(
          brokers_[i].get(), manager_.get(), &network_));
    }
  }

  int64_t ProduceOne(int partition, const std::string& payload) {
    kafka::MessageSetBuilder builder;
    builder.Add(payload);
    auto offset =
        manager_->ProduceToLeader("test", "t", partition, builder.Build());
    EXPECT_TRUE(offset.ok()) << offset.status().ToString();
    return offset.ok() ? offset.value() : -1;
  }

  void SyncAll() {
    for (auto& fetcher : fetchers_) {
      ASSERT_TRUE(fetcher->SyncOnce("t", kPartitions).ok());
    }
  }

  ManualClock clock_;
  zk::ZooKeeper zk_;
  net::Network network_;
  std::vector<std::unique_ptr<kafka::Broker>> brokers_;
  std::unique_ptr<kafka::ReplicatedTopicManager> manager_;
  std::vector<std::unique_ptr<kafka::ReplicaFetcher>> fetchers_;
};

TEST_F(ReplicationTest, LeadersSpreadOverReplicas) {
  std::set<int> leaders;
  for (int p = 0; p < kPartitions; ++p) {
    auto leader = manager_->LeaderOf("t", p);
    ASSERT_TRUE(leader.ok());
    leaders.insert(leader.value());
    auto replicas = manager_->ReplicasOf("t", p);
    ASSERT_TRUE(replicas.ok());
    EXPECT_EQ(replicas.value().size(), 3u);
  }
  EXPECT_EQ(leaders.size(), 3u);  // round-robin over 3 brokers
}

TEST_F(ReplicationTest, FollowersMirrorLeaderByteForByte) {
  for (int i = 0; i < 50; ++i) {
    ProduceOne(i % kPartitions, "m" + std::to_string(i));
  }
  SyncAll();
  for (int p = 0; p < kPartitions; ++p) {
    const int leader = manager_->LeaderOf("t", p).value();
    auto leader_data =
        brokers_[leader]->Fetch("t", p, 0, 1 << 20);
    ASSERT_TRUE(leader_data.ok());
    for (auto& broker : brokers_) {
      if (broker->id() == leader) continue;
      auto follower_data = broker->Fetch("t", p, 0, 1 << 20);
      ASSERT_TRUE(follower_data.ok());
      EXPECT_EQ(follower_data.value(), leader_data.value())
          << "partition " << p << " follower " << broker->id();
    }
  }
}

TEST_F(ReplicationTest, FailoverPromotesCaughtUpFollowerWithZeroLoss) {
  std::map<int, std::vector<std::string>> produced;  // per partition
  for (int i = 0; i < 60; ++i) {
    const int p = i % kPartitions;
    produced[p].push_back("m" + std::to_string(i));
    ProduceOne(p, produced[p].back());
  }
  SyncAll();  // fully replicated before the crash

  // Find a partition led by broker 0 and kill broker 0.
  int victim_partition = -1;
  for (int p = 0; p < kPartitions; ++p) {
    if (manager_->LeaderOf("t", p).value() == 0) victim_partition = p;
  }
  ASSERT_GE(victim_partition, 0);
  brokers_[0]->Shutdown();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kKafkaBroker, 0));

  auto moved = manager_->FailoverDeadLeaders("t");
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(moved.value(), 0);
  const int new_leader = manager_->LeaderOf("t", victim_partition).value();
  EXPECT_NE(new_leader, 0);

  // Every message of the failed partition is served by the new leader.
  auto data = manager_->FetchFromLeader("test", "t", victim_partition, 0,
                                        1 << 20);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  kafka::MessageSetIterator it(data.value(), 0);
  kafka::Message m;
  std::vector<std::string> recovered;
  while (it.Next(&m)) recovered.push_back(m.payload);
  EXPECT_EQ(recovered, produced[victim_partition]);

  // Writes continue through the new leader.
  const int64_t offset = ProduceOne(victim_partition, "after-failover");
  EXPECT_GE(offset, 0);
}

TEST_F(ReplicationTest, UnsyncedTailLostOnFailoverAcksOneSemantics) {
  const int p = 0;
  ProduceOne(p, "replicated");
  SyncAll();
  ProduceOne(p, "acked-but-not-fetched");  // followers never sync this
  const int old_leader = manager_->LeaderOf("t", p).value();
  brokers_[old_leader]->Shutdown();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kKafkaBroker, old_leader));
  ASSERT_TRUE(manager_->FailoverDeadLeaders("t").ok());

  auto data = manager_->FetchFromLeader("test", "t", p, 0, 1 << 20);
  ASSERT_TRUE(data.ok());
  kafka::MessageSetIterator it(data.value(), 0);
  kafka::Message m;
  std::vector<std::string> recovered;
  while (it.Next(&m)) recovered.push_back(m.payload);
  EXPECT_EQ(recovered, std::vector<std::string>{"replicated"});
}

TEST_F(ReplicationTest, NoLiveFollowerLeavesPartitionOffline) {
  brokers_[1]->Shutdown();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kKafkaBroker, 1));
  brokers_[2]->Shutdown();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kKafkaBroker, 2));
  brokers_[0]->Shutdown();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kKafkaBroker, 0));
  auto moved = manager_->FailoverDeadLeaders("t");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 0);  // nothing to promote
}

// ---------------------------------------------------------------------------
// Espresso global secondary index
// ---------------------------------------------------------------------------

TEST(GlobalIndexTest, IndexesAcrossPartitionsViaUpdateStream) {
  net::Network network;
  zk::ZooKeeper zookeeper;
  SystemClock* clock = SystemClock::Default();
  espresso::SchemaRegistry registry;
  ASSERT_OK(registry.CreateDatabase(
      {"db", espresso::DatabaseSchema::Partitioning::kHash, 8, 2}));
  ASSERT_OK(registry.CreateTable("db", {"docs", 1}));
  ASSERT_OK(registry.PostDocumentSchema("db", "docs", R"({
    "type":"record","name":"Doc","fields":[
      {"name":"title","type":"string","indexed":true},
      {"name":"body","type":"string","indexed":true,"index_type":"text"}]})"));
  espresso::EspressoRelay relay;
  helix::HelixController controller("c", &zookeeper);
  ASSERT_OK(controller.AddResource({"db", 8, 2}));
  std::vector<std::unique_ptr<espresso::StorageNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<espresso::StorageNode>(
        "esn-" + std::to_string(i), &registry, &relay, &network, clock);
    auto* raw = node.get();
    ASSERT_OK(controller.ConnectParticipant(raw->name(),
                                  [raw](const helix::Transition& t) {
                                    return raw->HandleTransition(t);
                                  }));
    nodes.push_back(std::move(node));
  }
  controller.RebalanceToConvergence();
  espresso::Router router("router", &registry, &controller, &network);

  // Documents under many different resource_ids -> many partitions; the
  // needle phrase appears in three of them.
  for (int i = 0; i < 60; ++i) {
    auto doc = avro::Datum::Record("Doc");
    doc->SetField("title", avro::Datum::String("t" + std::to_string(i)));
    doc->SetField("body",
                  avro::Datum::String(i % 20 == 0 ? "the needle phrase here"
                                                  : "ordinary text"));
    ASSERT_TRUE(router
                    .PutDocument("/db/docs/r" + std::to_string(i) + "/d",
                                 *doc)
                    .ok());
  }

  espresso::GlobalIndexer indexer("db", &registry, &relay);
  EXPECT_EQ(indexer.CatchUp(), 60);
  EXPECT_EQ(indexer.documents_indexed(), 60);

  // A LOCAL query cannot span resource ids; the global one can.
  auto global = indexer.Query("docs", "body:\"needle phrase\"");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.value().size(), 3u);

  // Incremental: deletes and new writes are reflected after catch-up.
  ASSERT_TRUE(router.DeleteDocument("/db/docs/r0/d").ok());
  indexer.CatchUp();
  auto after_delete = indexer.Query("docs", "body:\"needle phrase\"");
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(after_delete.value().size(), 2u);
}

// The indexer reads 4096 events per relay read. A larger transaction used
// to be cut there with its SCN marked applied, so its last document was
// never indexed.
TEST(GlobalIndexTest, IndexesATransactionLargerThanOnePage) {
  espresso::SchemaRegistry registry;
  ASSERT_OK(registry.CreateDatabase(
      {"db", espresso::DatabaseSchema::Partitioning::kHash, 8, 2}));
  ASSERT_OK(registry.CreateTable("db", {"docs", 1}));
  auto version = registry.PostDocumentSchema("db", "docs", R"({
    "type":"record","name":"Doc","fields":[
      {"name":"title","type":"string","indexed":true}]})");
  ASSERT_OK(version);
  auto schema = registry.GetDocumentSchema("db", "docs", version.value());
  ASSERT_OK(schema);
  const int partition =
      espresso::PartitionOf(registry.GetDatabase("db").value(), "r");

  constexpr int kDocs = 4097;
  std::vector<databus::Event> txn(kDocs);
  for (int i = 0; i < kDocs; ++i) {
    auto doc = avro::Datum::Record("Doc");
    doc->SetField("title", avro::Datum::String("t" + std::to_string(i)));
    espresso::DocumentRecord record;
    record.schema_version = version.value();
    ASSERT_OK(avro::Encode(*schema.value(), *doc, &record.payload));
    txn[i].scn = 1;
    txn[i].source = "docs";
    txn[i].key = "r/d" + std::to_string(i);
    txn[i].partition = partition;
    txn[i].end_of_txn = i + 1 == kDocs;
    sqlstore::EncodeRow(record.ToRow(), &txn[i].payload);
  }
  espresso::EspressoRelay relay;
  ASSERT_OK(relay.Append("db", partition, std::move(txn)));

  espresso::GlobalIndexer indexer("db", &registry, &relay);
  EXPECT_EQ(indexer.CatchUp(), kDocs);
  EXPECT_EQ(indexer.documents_indexed(), kDocs);
  auto last = indexer.Query("docs", "title:t4096");
  ASSERT_OK(last);
  EXPECT_EQ(last.value(), std::vector<std::string>{"r/d4096"});
}

// ---------------------------------------------------------------------------
// Databus declarative transformations
// ---------------------------------------------------------------------------

TEST(TransformationTest, ParseAcceptsAndRejects) {
  EXPECT_TRUE(databus::Transformation::Parse("").ok());
  EXPECT_TRUE(databus::Transformation::Parse("project a,b").ok());
  EXPECT_TRUE(
      databus::Transformation::Parse("project a; rename b:c; where d=e").ok());
  EXPECT_FALSE(databus::Transformation::Parse("explode a").ok());
  EXPECT_FALSE(databus::Transformation::Parse("rename broken").ok());
  EXPECT_FALSE(databus::Transformation::Parse("where novalue").ok());
}

TEST(TransformationTest, ProjectRenameWhere) {
  auto t = databus::Transformation::Parse(
               "project name,country; rename name:member_name; "
               "where country=us")
               .value();
  databus::Event event;
  event.op = databus::Event::Op::kUpsert;
  sqlstore::EncodeRow({{"name", "ada"}, {"country", "us"}, {"ssn", "x"}},
                      &event.payload);
  auto result = t.Apply(event);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().has_value());
  auto row = sqlstore::DecodeRow(result.value()->payload);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().size(), 2u);
  EXPECT_EQ(row.value().at("member_name"), "ada");
  EXPECT_EQ(row.value().count("ssn"), 0u);  // projected away

  // Filtered out.
  databus::Event foreign = event;
  foreign.payload.clear();
  sqlstore::EncodeRow({{"name", "bob"}, {"country", "de"}}, &foreign.payload);
  auto filtered = t.Apply(foreign);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(filtered.value().has_value());
}

TEST(TransformationTest, AppliedInsideClientLibrary) {
  net::Network network;
  sqlstore::Database db("src");
  ASSERT_OK(db.CreateTable("members"));
  databus::Relay relay("relay", &db, &network);
  ASSERT_OK(db.Put("members", "m1", {{"name", "ada"}, {"country", "us"}, {"ssn", "1"}}));
  ASSERT_OK(db.Put("members", "m2", {{"name", "bob"}, {"country", "de"}, {"ssn", "2"}}));
  ASSERT_OK(db.Put("members", "m3", {{"name", "eve"}, {"country", "us"}, {"ssn", "3"}}));
  ASSERT_OK(relay.PollOnce());

  std::vector<sqlstore::Row> seen;
  databus::CallbackConsumer sink([&seen](const databus::Event& e) {
    auto row = sqlstore::DecodeRow(e.payload);
    if (row.ok()) seen.push_back(row.value());
    return Status::OK();
  });
  databus::ClientOptions options;
  options.transformation =
      databus::Transformation::Parse("project name; where country=us").value();
  databus::DatabusClient client("c", "relay", "", &network, &sink, options);
  ASSERT_TRUE(client.DrainToHead().ok());

  ASSERT_EQ(seen.size(), 2u);  // bob filtered out
  for (const auto& row : seen) {
    EXPECT_EQ(row.size(), 1u);
    EXPECT_EQ(row.count("name"), 1u);
  }
  // Checkpoint still reached the head past filtered events.
  EXPECT_EQ(client.checkpoint_scn(), 3);
}

// ---------------------------------------------------------------------------
// Voldemort read-only update stream
// ---------------------------------------------------------------------------

TEST(SwapListenerTest, FiresOnSwapAndRollback) {
  voldemort::ReadOnlyStore store;
  std::vector<int64_t> notified;
  store.AddSwapListener([&notified](int64_t v) { notified.push_back(v); });
  ASSERT_TRUE(store.AddVersion(1, {}).ok());
  ASSERT_TRUE(store.AddVersion(2, {}).ok());
  ASSERT_TRUE(store.Swap(1).ok());
  ASSERT_TRUE(store.Swap(2).ok());
  ASSERT_TRUE(store.Rollback().ok());
  EXPECT_EQ(notified, (std::vector<int64_t>{1, 2, 1}));
  // Failed swaps do not notify.
  EXPECT_FALSE(store.Swap(99).ok());
  EXPECT_EQ(notified.size(), 3u);
}


// ---------------------------------------------------------------------------
// Databus multi-tenancy
// ---------------------------------------------------------------------------

TEST(MultiTenantRelayTest, TenantsServeIndependentStreams) {
  net::Network network;
  sqlstore::Database profiles_db("profiles_db");
  ASSERT_OK(profiles_db.CreateTable("t"));
  sqlstore::Database jobs_db("jobs_db");
  ASSERT_OK(jobs_db.CreateTable("t"));

  databus::MultiTenantRelay relay("mt-relay", &network, 1024);
  ASSERT_TRUE(relay.AddTenant("profiles", &profiles_db).ok());
  ASSERT_TRUE(relay.AddTenant("jobs", &jobs_db).ok());
  EXPECT_TRUE(relay.AddTenant("profiles", &profiles_db)
                  .code() == Code::kAlreadyExists);
  EXPECT_FALSE(relay.AddTenant("bad/name", &jobs_db).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(profiles_db.Put("t", "p" + std::to_string(i), {}));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(jobs_db.Put("t", "j" + std::to_string(i), {}));
  }
  ASSERT_TRUE(relay.PollAllOnce().ok());

  // The standard client library works unchanged against a tenant stream.
  databus::CallbackConsumer count_profiles([](const databus::Event&) {
    return Status::OK();
  });
  databus::DatabusClient profiles_client("cp", relay.TenantAddress("profiles"),
                                         "", &network, &count_profiles);
  auto n = profiles_client.DrainToHead();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 10);

  databus::CallbackConsumer count_jobs([](const databus::Event&) {
    return Status::OK();
  });
  databus::DatabusClient jobs_client("cj", relay.TenantAddress("jobs"), "",
                                     &network, &count_jobs);
  auto m = jobs_client.DrainToHead();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value(), 4);
}

TEST(MultiTenantRelayTest, NoisyTenantCannotEvictQuietTenant) {
  net::Network network;
  sqlstore::Database noisy_db("noisy");
  ASSERT_OK(noisy_db.CreateTable("t"));
  sqlstore::Database quiet_db("quiet");
  ASSERT_OK(quiet_db.CreateTable("t"));

  databus::MultiTenantRelay relay("mt-relay", &network, /*budget=*/64);
  ASSERT_TRUE(relay.AddTenant("noisy", &noisy_db).ok());
  ASSERT_TRUE(relay.AddTenant("quiet", &quiet_db).ok());
  const int64_t share = relay.BufferShare();

  ASSERT_OK(quiet_db.Put("t", "important", {}));
  ASSERT_OK(relay.PollAllOnce());
  // The noisy tenant floods far beyond the whole process budget.
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(noisy_db.Put("t", "spam" + std::to_string(i), {}));
    if (i % 10 == 0) ASSERT_OK(relay.PollAllOnce());
  }
  while (relay.PollAllOnce().value() > 0) {
  }
  // Isolation: the noisy tenant filled only its own share; the quiet
  // tenant's single event is still buffered and servable.
  EXPECT_LE(relay.BufferedEvents("noisy"), share);
  EXPECT_EQ(relay.BufferedEvents("quiet"), 1);

  databus::CallbackConsumer sink([](const databus::Event&) {
    return Status::OK();
  });
  databus::DatabusClient quiet_client("cq", relay.TenantAddress("quiet"), "",
                                      &network, &sink);
  auto n = quiet_client.DrainToHead();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
}

}  // namespace
}  // namespace lidi
