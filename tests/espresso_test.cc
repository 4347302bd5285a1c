#include <gtest/gtest.h>

#include <memory>

#include "avro/codec.h"
#include "common/clock.h"
#include "common/coding.h"
#include "espresso/document.h"
#include "espresso/replication.h"
#include "espresso/router.h"
#include "espresso/schema.h"
#include "espresso/storage_node.h"
#include "espresso/uri.h"
#include "helix/helix.h"
#include "net/network.h"
#include "zk/zookeeper.h"

#include "status_test_util.h"

namespace lidi::espresso {
namespace {

// ---------------------------------------------------------------------------
// URIs
// ---------------------------------------------------------------------------

TEST(UriTest, SingletonResource) {
  auto p = ParseUri("/Music/Artist/Rolling_Stones");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().database, "Music");
  EXPECT_EQ(p.value().table, "Artist");
  EXPECT_EQ(p.value().resource_id, "Rolling_Stones");
  EXPECT_TRUE(p.value().subresources.empty());
  EXPECT_EQ(p.value().DocumentKey(), "Rolling_Stones");
}

TEST(UriTest, CollectionResource) {
  auto p = ParseUri("/Music/Song/Etta_James/Gold/At_Last");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().resource_id, "Etta_James");
  ASSERT_EQ(p.value().subresources.size(), 2u);
  EXPECT_EQ(p.value().DocumentKey(), "Etta_James/Gold/At_Last");
  EXPECT_EQ(p.value().Path(), "/Music/Song/Etta_James/Gold/At_Last");
}

TEST(UriTest, QueryParameter) {
  auto p = ParseUri("/Music/Song/The_Beatles?query=lyrics:%22Lucy+in+the+sky%22");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().query, "lyrics:\"Lucy in the sky\"");
}

TEST(UriTest, Malformed) {
  EXPECT_FALSE(ParseUri("").ok());
  EXPECT_FALSE(ParseUri("nope").ok());
  EXPECT_FALSE(ParseUri("/only-db").ok());
}

// ---------------------------------------------------------------------------
// Schema registry
// ---------------------------------------------------------------------------

constexpr char kSongSchemaV1[] = R"({
  "type":"record","name":"Song","fields":[
    {"name":"title","type":"string","indexed":true},
    {"name":"lyrics","type":"string","indexed":true,"index_type":"text"},
    {"name":"year","type":"int","indexed":true}
  ]})";

constexpr char kSongSchemaV2[] = R"({
  "type":"record","name":"Song","fields":[
    {"name":"title","type":"string","indexed":true},
    {"name":"lyrics","type":"string","indexed":true,"index_type":"text"},
    {"name":"year","type":"int","indexed":true},
    {"name":"genre","type":"string","default":"unknown"}
  ]})";

constexpr char kSongSchemaBad[] = R"({
  "type":"record","name":"Song","fields":[
    {"name":"title","type":"string"},
    {"name":"mandatory_new","type":"string"}
  ]})";

TEST(SchemaRegistryTest, DatabaseAndTableLifecycle) {
  SchemaRegistry registry;
  ASSERT_TRUE(
      registry.CreateDatabase(DatabaseSchema{"Music", {}, 8, 2}).ok());
  EXPECT_TRUE(registry.CreateDatabase(DatabaseSchema{"Music"}).code() ==
              Code::kAlreadyExists);
  ASSERT_TRUE(registry.CreateTable("Music", TableSchema{"Song", 2}).ok());
  EXPECT_FALSE(registry.CreateTable("NoDb", TableSchema{"X", 0}).ok());
  auto table = registry.GetTable("Music", "Song");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().subresource_levels, 2);
}

TEST(SchemaRegistryTest, SchemaEvolutionVersions) {
  SchemaRegistry registry;
  ASSERT_OK(registry.CreateDatabase(DatabaseSchema{"Music"}));
  ASSERT_OK(registry.CreateTable("Music", TableSchema{"Song", 2}));
  auto v1 = registry.PostDocumentSchema("Music", "Song", kSongSchemaV1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1.value(), 1);
  auto v2 = registry.PostDocumentSchema("Music", "Song", kSongSchemaV2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value(), 2);
  auto latest = registry.LatestDocumentSchema("Music", "Song");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().first, 2);
}

TEST(SchemaRegistryTest, IncompatibleEvolutionRejected) {
  SchemaRegistry registry;
  ASSERT_OK(registry.CreateDatabase(DatabaseSchema{"Music"}));
  ASSERT_OK(registry.CreateTable("Music", TableSchema{"Song", 2}));
  ASSERT_TRUE(registry.PostDocumentSchema("Music", "Song", kSongSchemaV1).ok());
  // A new required field without default breaks old documents.
  EXPECT_FALSE(
      registry.PostDocumentSchema("Music", "Song", kSongSchemaBad).ok());
}

TEST(SchemaCompatTest, PromotionAndUnionRules) {
  auto writer = avro::ParseSchema("\"int\"").value();
  auto reader = avro::ParseSchema("\"long\"").value();
  EXPECT_TRUE(CheckCompatible(*writer, *reader).ok());
  EXPECT_FALSE(CheckCompatible(*reader, *writer).ok());
  auto u = avro::ParseSchema(R"(["null","string"])").value();
  auto s = avro::ParseSchema("\"string\"").value();
  EXPECT_TRUE(CheckCompatible(*s, *u).ok());
}

TEST(PartitioningTest, HashAndUnpartitioned) {
  DatabaseSchema hashed{"db", DatabaseSchema::Partitioning::kHash, 16, 2};
  EXPECT_GE(PartitionOf(hashed, "Akon"), 0);
  EXPECT_LT(PartitionOf(hashed, "Akon"), 16);
  EXPECT_EQ(PartitionOf(hashed, "Akon"), PartitionOf(hashed, "Akon"));

  DatabaseSchema unpartitioned{
      "db", DatabaseSchema::Partitioning::kUnpartitioned, 16, 2};
  EXPECT_EQ(PartitionOf(unpartitioned, "anything"), 0);
}

// ---------------------------------------------------------------------------
// Espresso relay
// ---------------------------------------------------------------------------

databus::Event MakeEvent(int64_t scn, const std::string& key) {
  databus::Event e;
  e.scn = scn;
  e.source = "T";
  e.key = key;
  e.end_of_txn = true;
  return e;
}

TEST(EspressoRelayTest, PerPartitionTimelines) {
  EspressoRelay relay;
  ASSERT_TRUE(relay.Append("db", 0, {MakeEvent(1, "a")}).ok());
  ASSERT_TRUE(relay.Append("db", 1, {MakeEvent(1, "b")}).ok());
  ASSERT_TRUE(relay.Append("db", 0, {MakeEvent(2, "c")}).ok());
  EXPECT_EQ(relay.MaxScn("db", 0), 2);
  EXPECT_EQ(relay.MaxScn("db", 1), 1);
  auto events = relay.Read("db", 0, 0, 100);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events.value().size(), 2u);
}

TEST(EspressoRelayTest, RejectsTimelineGapsAndStaleMasters) {
  EspressoRelay relay;
  ASSERT_TRUE(relay.Append("db", 0, {MakeEvent(1, "a")}).ok());
  // Gap.
  EXPECT_TRUE(relay.Append("db", 0, {MakeEvent(3, "b")}).IsObsoleteVersion());
  // Stale (split-brain fencing).
  EXPECT_TRUE(relay.Append("db", 0, {MakeEvent(1, "b")}).IsObsoleteVersion());
}

TEST(EspressoRelayTest, FencedAppendLeavesTheBufferUnchanged) {
  EspressoRelay relay;
  ASSERT_OK(relay.Append("db", 0, {MakeEvent(1, "a")}));
  ASSERT_OK(relay.Append("db", 0, {MakeEvent(2, "b")}));
  EXPECT_TRUE(relay.Append("db", 0, {MakeEvent(4, "gap")}).IsObsoleteVersion());
  EXPECT_TRUE(
      relay.Append("db", 0, {MakeEvent(2, "stale")}).IsObsoleteVersion());
  EXPECT_TRUE(relay.Append("db", 1, {MakeEvent(2, "gap")}).IsObsoleteVersion());
  EXPECT_EQ(relay.MaxScn("db", 0), 2);
  EXPECT_EQ(relay.MaxScn("db", 1), 0);
  EXPECT_EQ(relay.TotalEvents(), 2);
  auto events = relay.Read("db", 0, 0, 100);
  ASSERT_OK(events);
  ASSERT_EQ(events.value().size(), 2u);
  EXPECT_EQ(events.value()[0].key, "a");
  EXPECT_EQ(events.value()[1].key, "b");
  ASSERT_OK(relay.Append("db", 0, {MakeEvent(3, "c")}));
  ASSERT_OK(relay.Append("db", 1, {MakeEvent(1, "d")}));
}

// ---------------------------------------------------------------------------
// Full Espresso cluster
// ---------------------------------------------------------------------------

class EspressoClusterTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  void SetUp() override {
    ASSERT_OK(registry_.CreateDatabase(
        DatabaseSchema{"Music", DatabaseSchema::Partitioning::kHash, 8, 2}));
    ASSERT_OK(registry_.CreateTable("Music", TableSchema{"Artist", 0}));
    ASSERT_OK(registry_.CreateTable("Music", TableSchema{"Album", 1}));
    ASSERT_OK(registry_.CreateTable("Music", TableSchema{"Song", 2}));
    ASSERT_TRUE(
        registry_.PostDocumentSchema("Music", "Song", kSongSchemaV1).ok());
    ASSERT_TRUE(registry_
                    .PostDocumentSchema("Music", "Album", R"({
      "type":"record","name":"Album","fields":[
        {"name":"artist","type":"string","indexed":true},
        {"name":"year","type":"int","indexed":true}
      ]})")
                    .ok());
    ASSERT_TRUE(registry_
                    .PostDocumentSchema("Music", "Artist", R"({
      "type":"record","name":"Artist","fields":[
        {"name":"name","type":"string"}
      ]})")
                    .ok());

    controller_ = std::make_unique<helix::HelixController>("espresso", &zk_);
    ASSERT_TRUE(
        controller_->AddResource(helix::ResourceConfig{"Music", 8, 2}).ok());
    for (int i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<StorageNode>("esn-" + std::to_string(i),
                                                &registry_, &relay_, &network_,
                                                &clock_);
      node->SetMasterLookup([this](const std::string& db, int partition) {
        return controller_->MasterOf(db, partition);
      });
      StorageNode* raw = node.get();
      auto session = controller_->ConnectParticipant(
          raw->name(),
          [raw](const helix::Transition& t) { return raw->HandleTransition(t); });
      ASSERT_TRUE(session.ok());
      sessions_[raw->name()] = session.value();
      nodes_.push_back(std::move(node));
    }
    controller_->RebalanceToConvergence();
    router_ = std::make_unique<Router>("router", &registry_, controller_.get(),
                                       &network_);
  }

  avro::DatumPtr Song(const std::string& title, const std::string& lyrics,
                      int year) {
    auto d = avro::Datum::Record("Song");
    d->SetField("title", avro::Datum::String(title));
    d->SetField("lyrics", avro::Datum::String(lyrics));
    d->SetField("year", avro::Datum::Int(year));
    return d;
  }

  StorageNode* NodeByName(const std::string& name) {
    for (auto& node : nodes_) {
      if (node->name() == name) return node.get();
    }
    return nullptr;
  }

  void CatchUpAllSlaves() {
    for (auto& node : nodes_) node->CatchUpAll();
  }

  net::Network network_;
  ManualClock clock_;
  zk::ZooKeeper zk_;
  SchemaRegistry registry_;
  EspressoRelay relay_;
  std::unique_ptr<helix::HelixController> controller_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::map<std::string, zk::SessionId> sessions_;
  std::unique_ptr<Router> router_;
};

TEST_F(EspressoClusterTest, PutGetDocumentRoundTrip) {
  auto song = Song("At Last", "at last my love has come along", 1960);
  auto etag = router_->PutDocument("/Music/Song/Etta_James/Gold/At_Last", *song);
  ASSERT_TRUE(etag.ok()) << etag.status().ToString();
  EXPECT_FALSE(etag.value().empty());

  auto fetched = router_->GetDocument("/Music/Song/Etta_James/Gold/At_Last");
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_TRUE(fetched.value()->Equals(*song));
}

TEST_F(EspressoClusterTest, GetMissingIsNotFound) {
  EXPECT_TRUE(
      router_->GetDocument("/Music/Song/Nobody/None/None").status().IsNotFound());
}

TEST_F(EspressoClusterTest, ConditionalPutWithEtag) {
  auto song = Song("s", "l", 2000);
  auto etag1 = router_->PutDocument("/Music/Song/A/B/C", *song);
  ASSERT_TRUE(etag1.ok());
  auto song2 = Song("s", "l", 2001);
  // Correct etag: accepted.
  auto etag2 =
      router_->PutDocument("/Music/Song/A/B/C", *song2, etag1.value());
  ASSERT_TRUE(etag2.ok()) << etag2.status().ToString();
  // Stale etag: rejected.
  auto song3 = Song("s", "l", 2002);
  EXPECT_TRUE(router_->PutDocument("/Music/Song/A/B/C", *song3, etag1.value())
                  .status()
                  .IsObsoleteVersion());
}

TEST_F(EspressoClusterTest, DeleteDocument) {
  auto song = Song("s", "l", 2000);
  ASSERT_TRUE(router_->PutDocument("/Music/Song/A/B/C", *song).ok());
  ASSERT_TRUE(router_->DeleteDocument("/Music/Song/A/B/C").ok());
  EXPECT_TRUE(router_->GetDocument("/Music/Song/A/B/C").status().IsNotFound());
}

TEST_F(EspressoClusterTest, SecondaryIndexQuery) {
  // The paper's example: free-text query over lyrics.
  ASSERT_TRUE(router_
                  ->PutDocument("/Music/Song/The_Beatles/Sgt._Pepper/"
                                "Lucy_in_the_Sky_with_Diamonds",
                                *Song("Lucy in the Sky with Diamonds",
                                      "Picture yourself... Lucy in the sky",
                                      1967))
                  .ok());
  ASSERT_TRUE(router_
                  ->PutDocument(
                      "/Music/Song/The_Beatles/Magical_Mystery_Tour/"
                      "I_am_the_Walrus",
                      *Song("I am the Walrus",
                            "Lucy in the sky, see how they run", 1967))
                  .ok());
  ASSERT_TRUE(router_
                  ->PutDocument("/Music/Song/The_Beatles/Abbey_Road/"
                                "Come_Together",
                                *Song("Come Together", "over me", 1969))
                  .ok());

  auto results = router_->Query(
      "/Music/Song/The_Beatles?query=lyrics:%22Lucy+in+the+sky%22");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results.value().size(), 2u);
}

TEST_F(EspressoClusterTest, QueryScopedToResourceId) {
  ASSERT_TRUE(
      router_->PutDocument("/Music/Song/ArtistA/Al/S1", *Song("t", "hello", 1))
          .ok());
  // Different artist, may or may not share a partition; query must scope.
  ASSERT_TRUE(
      router_->PutDocument("/Music/Song/ArtistA/Al/S2", *Song("t", "world", 1))
          .ok());
  auto results = router_->Query("/Music/Song/ArtistA?query=lyrics:hello");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].first, "ArtistA/Al/S1");
}

TEST_F(EspressoClusterTest, MultiTableTransaction) {
  // Post a new album and its songs in one transaction (paper IV.A).
  auto album = avro::Datum::Record("Album");
  album->SetField("artist", avro::Datum::String("Elton John"));
  album->SetField("year", avro::Datum::Int(1974));
  auto song = Song("Greatest Hit", "la la", 1974);

  std::vector<Router::TxnUpdate> updates;
  updates.push_back({"Album", "Elton_John/Greatest_Hits", album.get()});
  updates.push_back(
      {"Song", "Elton_John/Greatest_Hits/Candle", song.get()});
  ASSERT_TRUE(router_->PostTransaction("Music", "Elton_John", updates).ok());

  EXPECT_TRUE(router_->GetDocument("/Music/Album/Elton_John/Greatest_Hits").ok());
  EXPECT_TRUE(
      router_->GetDocument("/Music/Song/Elton_John/Greatest_Hits/Candle").ok());
}

// An espresso.txn with no updates commits nothing and takes no SCN: the
// partition's next write still extends the relay's timeline.
TEST_F(EspressoClusterTest, EmptyTransactionTakesNoScn) {
  const int partition =
      PartitionOf(registry_.GetDatabase("Music").value(), "Akon");
  const std::string master = controller_->MasterOf("Music", partition);
  std::string request;
  EncodeTxnRequest("Music", "Akon", {}, &request);
  ASSERT_OK(network_.Call("test", master, "espresso.txn", request));
  EXPECT_EQ(NodeByName(master)->AppliedScn("Music", partition), 0);
  auto doc = avro::Datum::Record("Artist");
  doc->SetField("name", avro::Datum::String("Akon"));
  ASSERT_OK(router_->PutDocument("/Music/Artist/Akon", *doc));
  EXPECT_EQ(relay_.MaxScn("Music", partition), 1);
}

TEST_F(EspressoClusterTest, TransactionRejectsForeignResourceId) {
  auto song = Song("t", "l", 1);
  std::vector<Router::TxnUpdate> updates;
  updates.push_back({"Song", "OtherArtist/A/B", song.get()});
  EXPECT_FALSE(router_->PostTransaction("Music", "Elton_John", updates).ok());
}

TEST_F(EspressoClusterTest, ReplicationReachesSlaves) {
  const std::string uri = "/Music/Song/Akon/Trouble/Locked_Up";
  ASSERT_TRUE(router_->PutDocument(uri, *Song("Locked Up", "...", 2004)).ok());
  CatchUpAllSlaves();

  auto parsed = ParseUri(uri);
  const auto db_schema = registry_.GetDatabase("Music").value();
  const int partition = PartitionOf(db_schema, "Akon");
  int replicas_holding = 0;
  for (auto& node : nodes_) {
    if (node->LocalGet("Music", "Song", "Akon/Trouble/Locked_Up").ok()) {
      ++replicas_holding;
      EXPECT_TRUE(node->IsMasterOf("Music", partition) ||
                  node->IsSlaveOf("Music", partition));
    }
  }
  EXPECT_EQ(replicas_holding, 2);  // replication factor 2
}

TEST_F(EspressoClusterTest, TimelineConsistencyOnSlave) {
  // Apply many updates; the slave must see them in commit order.
  const std::string uri = "/Music/Artist/Akon";
  for (int i = 0; i < 10; ++i) {
    auto artist = avro::Datum::Record("Artist");
    artist->SetField("name", avro::Datum::String("v" + std::to_string(i)));
    ASSERT_TRUE(router_->PutDocument(uri, *artist).ok());
  }
  CatchUpAllSlaves();
  const auto db_schema = registry_.GetDatabase("Music").value();
  const int partition = PartitionOf(db_schema, "Akon");
  for (auto& node : nodes_) {
    if (node->IsSlaveOf("Music", partition)) {
      EXPECT_EQ(node->AppliedScn("Music", partition),
                relay_.MaxScn("Music", partition));
      auto record = node->LocalGet("Music", "Artist", "Akon");
      ASSERT_TRUE(record.ok());
      auto schema = registry_.LatestDocumentSchema("Music", "Artist").value();
      Slice payload(record.value().payload);
      auto datum = avro::Decode(*schema.second, &payload);
      ASSERT_TRUE(datum.ok());
      EXPECT_EQ(datum.value()->GetField("name")->string_value(), "v9");
    }
  }
}

TEST_F(EspressoClusterTest, FailoverPromotesSlaveWithoutDataLoss) {
  // Write documents, then kill a master; the slave drains the relay and
  // masters the partition; all acknowledged writes remain readable.
  std::vector<std::string> uris;
  for (int i = 0; i < 40; ++i) {
    const std::string artist = "Artist" + std::to_string(i);
    const std::string uri = "/Music/Artist/" + artist;
    auto doc = avro::Datum::Record("Artist");
    doc->SetField("name", avro::Datum::String(artist));
    ASSERT_TRUE(router_->PutDocument(uri, *doc).ok());
    uris.push_back(uri);
  }
  // Kill node 0 (without letting slaves catch up first: the relay holds the
  // outstanding changes — that is the durability argument of IV.B).
  const std::string victim = "esn-0";
  network_.SetNodeDown(victim);
  zk_.CloseSession(sessions_[victim]);
  controller_->RebalanceToConvergence();

  for (const std::string& uri : uris) {
    auto fetched = router_->GetDocument(uri);
    EXPECT_TRUE(fetched.ok()) << uri << ": " << fetched.status().ToString();
  }
  // And writes keep working.
  auto doc = avro::Datum::Record("Artist");
  doc->SetField("name", avro::Datum::String("after-failover"));
  EXPECT_TRUE(router_->PutDocument("/Music/Artist/Post_Failover", *doc).ok());
}

// A slave catches up 4096 events per relay read. A larger transaction used
// to stop it at that page for good: after failover the new master held none
// of the transaction's acked documents, and its next write was fenced.
TEST_F(EspressoClusterTest, TransactionLargerThanACatchUpPageSurvivesFailover) {
  constexpr int kDocs = 4097;
  std::vector<avro::DatumPtr> songs;
  std::vector<Router::TxnUpdate> updates;
  for (int i = 0; i < kDocs; ++i) {
    songs.push_back(Song("t" + std::to_string(i), "l", 2000));
    updates.push_back(
        {"Song", "Big/Album/S" + std::to_string(i), songs.back().get()});
  }
  ASSERT_OK(router_->PostTransaction("Music", "Big", updates));
  const auto db_schema = registry_.GetDatabase("Music").value();
  const int partition = PartitionOf(db_schema, "Big");
  const std::string master = controller_->MasterOf("Music", partition);

  // Fail the master over before its slave has caught up.
  network_.SetNodeDown(master);
  zk_.CloseSession(sessions_[master]);
  controller_->RebalanceToConvergence();
  StorageNode* promoted = NodeByName(controller_->MasterOf("Music", partition));
  ASSERT_NE(promoted, nullptr);
  ASSERT_NE(promoted->name(), master);
  EXPECT_EQ(promoted->AppliedScn("Music", partition),
            relay_.MaxScn("Music", partition));
  EXPECT_EQ(promoted->DocumentCount("Music", "Song"), kDocs);
  EXPECT_OK(promoted->LocalGet("Music", "Song", "Big/Album/S4096"));
  EXPECT_OK(router_->PutDocument("/Music/Song/Big/Album/After",
                                 *Song("after", "l", 2001)));
}

TEST_F(EspressoClusterTest, StaleMasterIsFenced) {
  const auto db_schema = registry_.GetDatabase("Music").value();
  const int partition = PartitionOf(db_schema, "Akon");
  const std::string master_name = controller_->MasterOf("Music", partition);
  StorageNode* old_master = NodeByName(master_name);
  ASSERT_NE(old_master, nullptr);

  // Fail the master over (but leave the process running: a "zombie").
  zk_.CloseSession(sessions_[master_name]);
  controller_->RebalanceToConvergence();
  const std::string new_master_name = controller_->MasterOf("Music", partition);
  ASSERT_NE(new_master_name, master_name);

  // New master takes a write.
  auto doc = avro::Datum::Record("Artist");
  doc->SetField("name", avro::Datum::String("x"));
  ASSERT_TRUE(router_->PutDocument("/Music/Artist/Akon", *doc).ok());

  // The zombie still thinks it masters the partition; its next write must be
  // rejected by the relay timeline check.
  EXPECT_TRUE(old_master->IsMasterOf("Music", partition));
  std::string request;
  DocumentRecord record;
  record.payload = "zombie";
  EncodePutRequest("Music", "Artist", "Akon", record, "", &request);
  auto response =
      network_.Call("test", master_name, "espresso.put", request);
  EXPECT_FALSE(response.ok());
}

TEST_F(EspressoClusterTest, SchemaEvolutionPromotesOldDocuments) {
  const std::string uri = "/Music/Song/Old_Artist/Old_Album/Old_Song";
  ASSERT_TRUE(router_->PutDocument(uri, *Song("Old", "old lyrics", 1950)).ok());
  // Evolve the schema: add `genre` with a default.
  ASSERT_TRUE(registry_.PostDocumentSchema("Music", "Song", kSongSchemaV2).ok());
  auto fetched = router_->GetDocument(uri);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  auto genre = fetched.value()->GetField("genre");
  ASSERT_NE(genre, nullptr);
  EXPECT_EQ(genre->string_value(), "unknown");
}

TEST_F(EspressoClusterTest, NewNodeBootstrapsFromSnapshotAndRelay) {
  for (int i = 0; i < 30; ++i) {
    auto doc = avro::Datum::Record("Artist");
    doc->SetField("name", avro::Datum::String("a" + std::to_string(i)));
    ASSERT_TRUE(
        router_->PutDocument("/Music/Artist/A" + std::to_string(i), *doc).ok());
  }
  // Add a fourth node; Helix redistributes; the node bootstraps partitions
  // from snapshots plus relay catch-up.
  auto node = std::make_unique<StorageNode>("esn-3", &registry_, &relay_,
                                            &network_, &clock_);
  node->SetMasterLookup([this](const std::string& db, int partition) {
    return controller_->MasterOf(db, partition);
  });
  StorageNode* raw = node.get();
  auto session = controller_->ConnectParticipant(
      raw->name(),
      [raw](const helix::Transition& t) { return raw->HandleTransition(t); });
  ASSERT_TRUE(session.ok());
  nodes_.push_back(std::move(node));
  controller_->RebalanceToConvergence();

  // All documents remain reachable through the router.
  for (int i = 0; i < 30; ++i) {
    auto fetched = router_->GetDocument("/Music/Artist/A" + std::to_string(i));
    EXPECT_TRUE(fetched.ok()) << i << ": " << fetched.status().ToString();
  }
  // The new node holds some partitions.
  int held = 0;
  for (int p = 0; p < 8; ++p) {
    if (raw->IsMasterOf("Music", p) || raw->IsSlaveOf("Music", p)) ++held;
  }
  EXPECT_GT(held, 0);
}

// OFFLINE->SLAVE decodes the master's whole snapshot before installing any
// of it. A reply torn inside its second row leaves the new node with no
// document of the partition, none indexed, at SCN 0, and not a replica.
TEST_F(EspressoClusterTest, TruncatedSnapshotInstallsNothing) {
  const int partition =
      PartitionOf(registry_.GetDatabase("Music").value(), "Prince");
  auto schema = registry_.GetDocumentSchema("Music", "Song", 1);
  ASSERT_OK(schema);
  DocumentRecord record;
  ASSERT_OK(avro::Encode(*schema.value(), *Song("t", "hello", 1984),
                         &record.payload));
  record.schema_version = 1;
  record.etag = ComputeEtag(record.payload);
  std::string reply;
  PutVarint64(&reply, 2);  // snapshot SCN
  PutVarint64(&reply, 2);  // rows
  for (const char* key : {"Prince/Album/One", "Prince/Album/Two"}) {
    PutLengthPrefixed(&reply, "Song");
    PutLengthPrefixed(&reply, key);
    EncodeDocumentRecord(record, &reply);
  }
  reply.resize(reply.size() - 3);  // inside the second row's record
  network_.Register("fake-master", "espresso.fetch-partition",
                    [reply](Slice) { return Result<std::string>(reply); });

  StorageNode node("esn-new", &registry_, &relay_, &network_, &clock_);
  node.SetMasterLookup(
      [](const std::string&, int) { return std::string("fake-master"); });
  const Status s = node.HandleTransition({node.name(), "Music", partition,
                                          helix::ReplicaState::kOffline,
                                          helix::ReplicaState::kSlave});
  EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();
  EXPECT_EQ(node.AppliedScn("Music", partition), 0);
  EXPECT_FALSE(node.IsSlaveOf("Music", partition));
  EXPECT_TRUE(
      node.LocalGet("Music", "Song", "Prince/Album/One").status().IsNotFound());
  EXPECT_EQ(node.DocumentCount("Music", "Song"), 0);
  std::string query;
  EncodeQueryRequest("Music", "Song", "Prince", "lyrics:hello", &query);
  auto response = network_.Call("test", node.name(), "espresso.query", query);
  ASSERT_OK(response);
  std::vector<std::pair<std::string, DocumentRecord>> results;
  ASSERT_OK(DecodeQueryResponse(response.value(), &results));
  EXPECT_TRUE(results.empty());
  network_.Unregister("fake-master");
}

TEST_F(EspressoClusterTest, WritesToNonMasterRejected) {
  const auto db_schema = registry_.GetDatabase("Music").value();
  const int partition = PartitionOf(db_schema, "Akon");
  const std::string master = controller_->MasterOf("Music", partition);
  // Find a non-master node and hit it directly.
  for (auto& node : nodes_) {
    if (node->name() == master) continue;
    DocumentRecord record;
    record.payload = "x";
    std::string request;
    EncodePutRequest("Music", "Artist", "Akon", record, "", &request);
    auto response = network_.Call("test", node->name(), "espresso.put", request);
    EXPECT_FALSE(response.ok());
    break;
  }
}

}  // namespace
}  // namespace lidi::espresso
