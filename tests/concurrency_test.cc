// Concurrency and divergence coverage: the Dynamo split-brain scenario
// (divergent version histories surfaced to the application), optimistic-lock
// races between writers, multi-threaded stress, and the un-partitioned
// Espresso mode.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "espresso/router.h"
#include "espresso/storage_node.h"
#include "io/file.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/mirror.h"
#include "kafka/producer.h"
#include "net/address.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "sqlstore/database.h"
#include "voldemort/client.h"
#include "voldemort/server.h"
#include "zk/zookeeper.h"

#include "status_test_util.h"

namespace lidi {
namespace {

// ---------------------------------------------------------------------------
// The Dynamo divergence scenario (paper II.B: "any replica of a given
// partition is able to accept a write. As a result, it is possible for
// divergent version histories to form on multiple nodes during failures /
// partitions" — and Get must surface both versions to the application).
// ---------------------------------------------------------------------------

TEST(DivergenceTest, PartitionedWritersProduceConcurrentVersions) {
  net::Network network;
  ManualClock clock;
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 4));
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> servers;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(
        std::make_unique<voldemort::VoldemortServer>(i, metadata, &network));
    ASSERT_OK(servers.back()->AddStore("s"));
  }
  voldemort::ClientOptions options;
  options.enable_hinted_handoff = false;  // keep the divergence clean
  options.failure_detector.ban_millis = 1;
  options.failure_detector.minimum_requests = 2;  // trip fast in the test
  voldemort::StoreDefinition def{"s", 2, 1, 1};  // sloppy: R=1, W=1

  // Writer A lives with node 0, writer B with node 1; the network splits.
  voldemort::StoreClient a("writer-a", def, metadata, &network, &clock, options);
  voldemort::StoreClient b("writer-b", def, metadata, &network, &clock, options);
  const std::string key = "profile";
  network.PartitionOff({"writer-a", net::MakeAddress(net::Tier::kVoldemort, 0)});

  // Each writer retries until its failure detector bans the unreachable
  // replica and a reachable coordinator takes the write — the paper's
  // failure-detector-guided routing in action.
  auto put_with_retries = [&clock](voldemort::StoreClient* client,
                                   const std::string& k,
                                   const std::string& value) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      clock.AdvanceMillis(5);
      if (client->PutValue(k, value).ok()) return true;
    }
    return false;
  };
  ASSERT_TRUE(put_with_retries(&a, key, "version-from-a"));
  ASSERT_TRUE(put_with_retries(&b, key, "version-from-b"));

  // Heal: a read that reaches both replicas surfaces BOTH versions — the
  // application resolves, exactly as Figure II.2's API promises.
  network.Heal();
  clock.AdvanceMillis(100);
  voldemort::StoreClient reader("reader", {"s", 2, 2, 1}, metadata, &network,
                                &clock, options);
  auto versions = reader.Get(key);
  ASSERT_TRUE(versions.ok()) << versions.status().ToString();
  ASSERT_EQ(versions.value().size(), 2u) << "expected divergent histories";
  std::set<std::string> values;
  for (const auto& v : versions.value()) values.insert(v.value);
  EXPECT_EQ(values,
            (std::set<std::string>{"version-from-a", "version-from-b"}));

  // The application resolves by writing with the merged clock.
  voldemort::VectorClock merged;
  for (const auto& v : versions.value()) merged = merged.Merge(v.version);
  ASSERT_TRUE(reader.Put(key, {merged, "resolved"}).ok());
  auto resolved = reader.Get(key);
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved.value().size(), 1u);
  EXPECT_EQ(resolved.value()[0].value, "resolved");
}

TEST(DivergenceTest, OptimisticLockLoserGetsObsoleteVersion) {
  // Paper II.B: "Two concurrent updates to the same key results in one of
  // the clients failing due to an already written vector clock."
  net::Network network;
  ManualClock clock;
  std::vector<voldemort::Node> nodes{{0, net::MakeAddress(net::Tier::kVoldemort, 0), 0}};
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 2));
  voldemort::VoldemortServer server(0, metadata, &network);
  ASSERT_OK(server.AddStore("s"));
  voldemort::StoreDefinition def{"s", 1, 1, 1};
  voldemort::StoreClient c1("c1", def, metadata, &network, &clock);
  voldemort::StoreClient c2("c2", def, metadata, &network, &clock);

  ASSERT_TRUE(c1.PutValue("k", "base").ok());
  const auto base = c1.Get("k").value()[0].version;
  // Both clients try to update from the same read version.
  ASSERT_TRUE(c1.Put("k", {base, "first"}).ok());
  EXPECT_TRUE(c2.Put("k", {base, "second"}).IsObsoleteVersion());
  // The loser retries through ApplyUpdate and succeeds.
  EXPECT_TRUE(c2.ApplyUpdate(
                    "k",
                    [](const std::vector<voldemort::Versioned>&) {
                      return std::string("second-retried");
                    },
                    3)
                  .ok());
  EXPECT_EQ(c1.Get("k").value()[0].value, "second-retried");
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: thread-safety smoke tests over the shared tiers
// ---------------------------------------------------------------------------

TEST(ThreadStressTest, ParallelVoldemortClients) {
  net::Network network;
  ManualClock clock;
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 12));
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(
        std::make_unique<voldemort::VoldemortServer>(i, metadata, &network));
    ASSERT_OK(servers.back()->AddStore("s"));
  }

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      voldemort::StoreClient client("client-" + std::to_string(t),
                                    {"s", 2, 1, 1}, metadata, &network,
                                    &clock);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Disjoint key ranges per thread: exercises server/engine locking
        // without optimistic-lock noise.
        const std::string key =
            "t" + std::to_string(t) + "-k" + std::to_string(i % 50);
        if (!client.PutValue(key, "v" + std::to_string(i)).ok()) {
          failures.fetch_add(1);
        }
        if (!client.Get(key).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Server-side routing over real sockets (paper Figure II.1): a vr.* handler
// is the coordinator and places its replica calls on the same transport
// while it runs. Eight thin clients at once keep more coordinators waiting
// on nested calls than a fixed pool of four handler threads could serve.
TEST(ThreadStressTest, ServerSideRoutingWithMoreClientsThanWorkers) {
  net::TcpTransport network;
  std::vector<voldemort::Node> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  }
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 12));
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> servers;
  std::vector<net::Address> addresses;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(
        std::make_unique<voldemort::VoldemortServer>(i, metadata, &network));
    ASSERT_OK(servers.back()->AddStore("s"));
    ASSERT_OK(servers.back()->EnableServerSideRouting({"s", 3, 2, 2},
                                                      SystemClock::Default()));
    addresses.push_back(servers.back()->address());
  }

  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      voldemort::ThinClient thin("thin-" + std::to_string(c), "s", addresses,
                                 &network);
      auto key = [c](int i) {
        return "c" + std::to_string(c) + "-k" + std::to_string(i);
      };
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (!thin.Put(key(i), {voldemort::VectorClock{}, "v" + key(i)})
                 .ok()) {
          failures.fetch_add(1);
        }
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        auto versions = thin.Get(key(i));
        if (!versions.ok() || versions.value().size() != 1 ||
            versions.value()[0].value != "v" + key(i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadStressTest, ParallelKafkaProducersAndConsumer) {
  net::Network network;
  ManualClock clock;
  zk::ZooKeeper zookeeper;
  kafka::Broker broker(0, &zookeeper, &network, &clock, {});
  ASSERT_OK(broker.CreateTopic("t", 4));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p]() {
      kafka::Producer producer("p" + std::to_string(p), &zookeeper, &network);
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_OK(producer.Send("t", "m"));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  kafka::Consumer consumer("c", "g", &zookeeper, &network);
  ASSERT_OK(consumer.Subscribe("t"));
  int64_t got = 0;
  for (int round = 0; round < 10'000 && got < kProducers * kPerProducer;
       ++round) {
    auto messages = consumer.Poll("t");
    ASSERT_TRUE(messages.ok());
    got += static_cast<int64_t>(messages.value().size());
  }
  EXPECT_EQ(got, kProducers * kPerProducer);
}

/// Four threads share one producer while a second broker repeatedly joins
/// the topic and leaves it. The producer's partition cache is read and
/// refreshed under its lock while Zookeeper watch callbacks bump epochs from
/// the joining and leaving thread.
TEST(ThreadStressTest, ProducerFollowsBrokersJoiningAndLeaving) {
  net::Network network;
  ManualClock clock;
  zk::ZooKeeper zookeeper;
  kafka::Broker stable(0, &zookeeper, &network, &clock, {});
  ASSERT_OK(stable.CreateTopic("t", 2));
  kafka::Producer producer("p", &zookeeper, &network);
  // Every broker that joined stays alive until the senders are joined: a
  // send racing a departure may still be inside its handler.
  std::vector<std::unique_ptr<kafka::Broker>> joiners;

  std::atomic<bool> churning{true};
  std::atomic<int64_t> sent{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; churning.load() && i < 1'000'000; ++i) {
        const Status s =
            (i % 2 == 0)
                ? producer.Send("t", "m")
                : producer.Send("t", "key-" + std::to_string(t * 7 + i), "m");
        // A send routed just before the broker left finds no endpoint.
        if (s.ok()) {
          sent.fetch_add(1);
        } else if (!s.IsNotFound()) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  // EXPECT, not ASSERT, until the senders are joined.
  auto partition_count = [&]() {
    auto partitions = producer.PartitionsOf("t");
    return partitions.ok() ? partitions.value().size() : 0;
  };
  for (int round = 0; round < 20; ++round) {
    joiners.push_back(
        std::make_unique<kafka::Broker>(1, &zookeeper, &network, &clock,
                                        kafka::BrokerOptions{}));
    EXPECT_OK(joiners.back()->CreateTopic("t", 2));
    EXPECT_EQ(partition_count(), 4u);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    joiners.back()->Shutdown();
    EXPECT_EQ(partition_count(), 2u);
  }
  churning.store(false);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(sent.load(), 0);

  // Once the churn stops, every send lands on the broker that stayed.
  const int64_t before = stable.GetLog("t", 0)->end_offset() +
                         stable.GetLog("t", 1)->end_offset();
  for (int i = 0; i < 100; ++i) ASSERT_OK(producer.Send("t", "m"));
  EXPECT_EQ(stable.GetLog("t", 0)->end_offset() +
                stable.GetLog("t", 1)->end_offset(),
            before + 100 * kafka::MessageEntrySize(1));
}

// ---------------------------------------------------------------------------
// Compressed mirroring (cross-DC transfer is where compression pays, V.B)
// ---------------------------------------------------------------------------

TEST(CompressedMirrorTest, MirrorRecompressesAndDeliversExactly) {
  net::Network network;
  ManualClock clock;
  zk::ZooKeeper zookeeper;
  kafka::Broker live(0, &zookeeper, &network, &clock, {});
  ASSERT_OK(live.CreateTopic("t", 2));
  kafka::BrokerOptions offline_options;
  offline_options.zk_root = "/kafka-offline";
  kafka::Broker offline(100, &zookeeper, &network, &clock, offline_options);
  ASSERT_OK(offline.CreateTopic("t", 2));

  kafka::Producer producer("p", &zookeeper, &network);
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(producer.Send("t", "event body " + std::to_string(i)));
  }
  kafka::MirrorMaker mirror("m", "t", &zookeeper, &network, "/kafka",
                            "/kafka-offline", CompressionCodec::kDeflate);
  auto pumped = mirror.PumpToHead();
  ASSERT_TRUE(pumped.ok());
  EXPECT_EQ(pumped.value(), 50);

  kafka::ConsumerOptions offline_consumer;
  offline_consumer.zk_root = "/kafka-offline";
  kafka::Consumer analyst("a", "g", &zookeeper, &network, offline_consumer);
  ASSERT_OK(analyst.Subscribe("t"));
  std::multiset<std::string> received;
  for (int round = 0; round < 200 && received.size() < 50; ++round) {
    auto messages = analyst.Poll("t");
    ASSERT_TRUE(messages.ok());
    for (auto& m : messages.value()) received.insert(m.payload);
  }
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(received.count("event body " + std::to_string(i)), 1u);
  }
}

// ---------------------------------------------------------------------------
// Espresso master commits under concurrent writers. Each commit allocates
// AppliedScn()+1, appends to the relay, then applies; unless the three steps
// are serialised, two handlers on one master pick the same SCN and the relay
// fences the second ("fenced: partition timeline advanced past us") as if
// the master were stale. Over TCP each connection's handlers run on its own
// thread, so four clients writing one partition race on every commit.
// ---------------------------------------------------------------------------

TEST(ThreadStressTest, ConcurrentWritesToOnePartitionAreNotFenced) {
  net::TcpTransport network;
  zk::ZooKeeper zookeeper;
  espresso::SchemaRegistry registry;
  ASSERT_OK(registry.CreateDatabase(
      {"db", espresso::DatabaseSchema::Partitioning::kHash, 1, 1}));
  ASSERT_OK(registry.CreateTable("db", {"docs", 0}));
  ASSERT_OK(registry.PostDocumentSchema("db", "docs", R"({
    "type":"record","name":"D","fields":[{"name":"v","type":"string"}]})"));
  espresso::EspressoRelay relay;
  helix::HelixController controller("c", &zookeeper);
  ASSERT_OK(controller.AddResource({"db", 1, 1}));
  espresso::StorageNode node("esn-0", &registry, &relay, &network,
                             SystemClock::Default());
  ASSERT_OK(controller.ConnectParticipant(
      node.name(),
      [&node](const helix::Transition& t) { return node.HandleTransition(t); }));
  controller.RebalanceToConvergence();
  ASSERT_TRUE(node.IsMasterOf("db", 0));
  espresso::Router router("router", &registry, &controller, &network);

  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 500;
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&router, &failed, w] {
      for (int i = 0; i < kWritesPerWriter; ++i) {
        auto doc = avro::Datum::Record("D");
        doc->SetField("v", avro::Datum::String(std::to_string(i)));
        const std::string uri =
            "/db/docs/w" + std::to_string(w) + "-" + std::to_string(i);
        if (!router.PutDocument(uri, *doc).ok()) failed.fetch_add(1);
      }
    });
  }
  for (auto& writer : writers) writer.join();

  constexpr int kWrites = kWriters * kWritesPerWriter;
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(node.DocumentCount("db", "docs"), kWrites);
  // One SCN per commit, dense on the relay and applied on the master.
  EXPECT_EQ(relay.MaxScn("db", 0), kWrites);
  EXPECT_EQ(node.AppliedScn("db", 0), kWrites);
}

// ---------------------------------------------------------------------------
// Bootstrapping a replica while its master takes writes (paper IV.B: a new
// replica loads a snapshot of the master, then catches up from the relay
// after the SCN the snapshot claims). The snapshot must hold every commit
// that SCN covers: catch-up never replays them. Each round preloads a
// master, keeps one writer committing through the router while a fresh node
// runs OFFLINE->SLAVE, then checks every acked document on the replica.
// ---------------------------------------------------------------------------

TEST(ThreadStressTest, ReplicaBootstrappedDuringWritesHoldsEveryAckedDocument) {
  constexpr int kRounds = 10;
  constexpr int kPreloaded = 2000;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    net::Network network;
    zk::ZooKeeper zookeeper;
    espresso::SchemaRegistry registry;
    ASSERT_OK(registry.CreateDatabase(
        {"db", espresso::DatabaseSchema::Partitioning::kHash, 1, 1}));
    ASSERT_OK(registry.CreateTable("db", {"docs", 0}));
    ASSERT_OK(registry.PostDocumentSchema("db", "docs", R"({
      "type":"record","name":"D","fields":[{"name":"v","type":"string"}]})"));
    espresso::EspressoRelay relay;
    helix::HelixController controller("c", &zookeeper);
    ASSERT_OK(controller.AddResource({"db", 1, 1}));
    espresso::StorageNode master("esn-0", &registry, &relay, &network,
                                 SystemClock::Default());
    ASSERT_OK(controller.ConnectParticipant(
        master.name(), [&master](const helix::Transition& t) {
          return master.HandleTransition(t);
        }));
    controller.RebalanceToConvergence();
    ASSERT_TRUE(master.IsMasterOf("db", 0));
    espresso::Router router("router", &registry, &controller, &network);
    auto put = [&router](const std::string& key) {
      auto doc = avro::Datum::Record("D");
      doc->SetField("v", avro::Datum::String(key));
      return router.PutDocument("/db/docs/" + key, *doc).ok();
    };
    std::vector<std::string> acked;
    for (int i = 0; i < kPreloaded; ++i) {
      acked.push_back("p" + std::to_string(i));
      ASSERT_TRUE(put(acked.back()));
    }

    // Not a Helix participant: the test runs its transition itself.
    espresso::StorageNode replica("esn-1", &registry, &relay, &network,
                                  SystemClock::Default());
    replica.SetMasterLookup(
        [](const std::string&, int) { return std::string("esn-0"); });
    std::atomic<bool> stop{false};
    std::atomic<int> attempts{0};
    std::vector<std::string> written;  // the writer's until it is joined
    int failed = 0;
    std::thread writer([&] {
      for (int i = 0; !stop.load(); ++i) {
        const std::string key = "w" + std::to_string(i);
        if (put(key)) {
          written.push_back(key);
        } else {
          ++failed;
        }
        attempts.fetch_add(1);
      }
    });
    while (attempts.load() < 20) std::this_thread::yield();
    const Status bootstrapped = replica.HandleTransition(
        {replica.name(), "db", 0, helix::ReplicaState::kOffline,
         helix::ReplicaState::kSlave});
    stop.store(true);
    writer.join();
    ASSERT_OK(bootstrapped);
    EXPECT_EQ(failed, 0);
    replica.CatchUp("db", 0);
    ASSERT_EQ(replica.AppliedScn("db", 0), relay.MaxScn("db", 0));
    acked.insert(acked.end(), written.begin(), written.end());
    int missing = 0;
    for (const std::string& key : acked) {
      if (!replica.LocalGet("db", "docs", key).ok()) ++missing;
    }
    EXPECT_EQ(missing, 0) << "of " << acked.size() << " acked documents";
  }
}

// ---------------------------------------------------------------------------
// Commit capture under concurrent committers. The binlog lends each logged
// record's bytes to the relay (which decodes them and builds events from
// them with no binlog lock held), while other committers append their
// records to the same blocks.
// ---------------------------------------------------------------------------

TEST(ThreadStressTest, CommittersAndRelayShareTheBinlog) {
  auto fs = io::NewMemFs();
  sqlstore::BinlogOptions options;
  options.data_dir = "/db";
  options.fs = fs.get();
  options.sync = io::SyncPolicy::kAlways;
  options.group_commit = true;
  sqlstore::Database db("source", options);
  ASSERT_OK(db.CreateTable("t"));
  net::Network network;
  databus::Relay relay("relay", &db, &network);
  std::vector<databus::Event> delivered;  // the puller's until it is joined
  databus::CallbackConsumer consumer([&delivered](const databus::Event& e) {
    delivered.push_back(e);
    return Status::OK();
  });
  databus::DatabusClient client("client", "relay", "", &network, &consumer);

  constexpr int kCommitters = 4;
  constexpr int kCommitsPerCommitter = 500;
  constexpr int kCommits = kCommitters * kCommitsPerCommitter;
  Mutex committed_mu{"test.committed"};
  std::map<int64_t, std::pair<std::string, std::string>> committed;
  std::atomic<int> failed{0};
  std::atomic<int> committers_done{0};

  // Pulls until every committer has finished and the client has consumed
  // through the binlog head.
  std::thread puller([&] {
    while (failed.load() == 0) {
      const bool finished = committers_done.load() == kCommitters;
      if (!relay.PollOnce().ok() || !client.PollOnce().ok()) {
        failed.fetch_add(1);
      }
      if (finished && client.checkpoint_scn() == db.binlog().LastScn()) break;
    }
  });
  std::vector<std::thread> committers;
  for (int c = 0; c < kCommitters; ++c) {
    committers.emplace_back([&, c] {
      for (int i = 0; i < kCommitsPerCommitter; ++i) {
        const std::string key =
            "c" + std::to_string(c) + "-" + std::to_string(i % 50);
        const std::string value = std::to_string(c) + ":" + std::to_string(i);
        auto scn = db.Put("t", key, sqlstore::Row{{"v", value}});
        if (!scn.ok()) {
          failed.fetch_add(1);
          continue;
        }
        MutexLock lock(&committed_mu);
        committed[scn.value()] = {key, value};
      }
      committers_done.fetch_add(1);
    });
  }
  for (auto& committer : committers) committer.join();
  puller.join();

  ASSERT_EQ(failed.load(), 0);
  ASSERT_EQ(delivered.size(), static_cast<size_t>(kCommits));
  MutexLock lock(&committed_mu);
  for (int64_t scn = 1; scn <= kCommits; ++scn) {
    const databus::Event& event = delivered[static_cast<size_t>(scn - 1)];
    ASSERT_EQ(event.scn, scn) << "every SCN once, in commit order";
    const auto& [key, value] = committed.at(scn);
    EXPECT_EQ(event.key, key);
    auto row = sqlstore::DecodeRow(event.payload);
    ASSERT_OK(row);
    EXPECT_EQ(row.value(), (sqlstore::Row{{"v", value}}));
  }
}

// ---------------------------------------------------------------------------
// Un-partitioned Espresso databases (paper IV.A: "hash-based partitioning or
// un-partitioned (all documents are stored on all nodes)")
// ---------------------------------------------------------------------------

TEST(UnpartitionedTest, AllDocumentsOnAllNodes) {
  net::Network network;
  zk::ZooKeeper zookeeper;
  SystemClock* clock = SystemClock::Default();
  espresso::SchemaRegistry registry;
  // Un-partitioned: one partition replicated onto every node.
  ASSERT_OK(registry.CreateDatabase(
      {"conf", espresso::DatabaseSchema::Partitioning::kUnpartitioned, 1, 3}));
  ASSERT_OK(registry.CreateTable("conf", {"settings", 0}));
  ASSERT_OK(registry.PostDocumentSchema("conf", "settings", R"({
    "type":"record","name":"S","fields":[{"name":"v","type":"string"}]})"));
  espresso::EspressoRelay relay;
  helix::HelixController controller("c", &zookeeper);
  ASSERT_OK(controller.AddResource({"conf", 1, 3}));
  std::vector<std::unique_ptr<espresso::StorageNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<espresso::StorageNode>(
        "esn-" + std::to_string(i), &registry, &relay, &network, clock);
    auto* raw = node.get();
    ASSERT_OK(controller.ConnectParticipant(raw->name(), [raw](const helix::Transition& t) {
      return raw->HandleTransition(t);
    }));
    nodes.push_back(std::move(node));
  }
  controller.RebalanceToConvergence();
  espresso::Router router("router", &registry, &controller, &network);

  for (int i = 0; i < 10; ++i) {
    auto doc = avro::Datum::Record("S");
    doc->SetField("v", avro::Datum::String("x"));
    ASSERT_TRUE(
        router.PutDocument("/conf/settings/key" + std::to_string(i), *doc).ok());
  }
  for (auto& node : nodes) node->CatchUpAll();
  // Every node holds every document.
  for (auto& node : nodes) {
    EXPECT_EQ(node->DocumentCount("conf", "settings"), 10) << node->name();
  }
}

}  // namespace
}  // namespace lidi
