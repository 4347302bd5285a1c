#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/clock.h"
#include "common/coding.h"
#include "net/address.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "voldemort/admin.h"
#include "voldemort/bulk_build.h"
#include "voldemort/client.h"
#include "voldemort/cluster.h"
#include "voldemort/failure_detector.h"
#include "voldemort/metadata.h"
#include "voldemort/routing.h"
#include "voldemort/server.h"
#include "voldemort/vector_clock.h"
#include "voldemort/wire.h"

#include "status_test_util.h"

namespace lidi::voldemort {
namespace {

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

TEST(VectorClockTest, FreshClocksEqual) {
  VectorClock a, b;
  EXPECT_EQ(a.Compare(b), Occurred::kEqual);
}

TEST(VectorClockTest, IncrementOrdersCausally) {
  VectorClock a;
  a.Increment(1);
  VectorClock b = a;
  b.Increment(2);
  EXPECT_EQ(a.Compare(b), Occurred::kBefore);
  EXPECT_EQ(b.Compare(a), Occurred::kAfter);
  EXPECT_TRUE(b.DominatesOrEquals(a));
  EXPECT_FALSE(a.DominatesOrEquals(b));
}

TEST(VectorClockTest, DivergentHistoriesConcurrent) {
  VectorClock base;
  base.Increment(1);
  VectorClock x = base, y = base;
  x.Increment(2);
  y.Increment(3);
  EXPECT_EQ(x.Compare(y), Occurred::kConcurrently);
  EXPECT_EQ(y.Compare(x), Occurred::kConcurrently);
}

TEST(VectorClockTest, MergeDominatesBoth) {
  VectorClock x, y;
  x.Increment(1);
  x.Increment(1);
  y.Increment(2);
  VectorClock m = x.Merge(y);
  EXPECT_TRUE(m.DominatesOrEquals(x));
  EXPECT_TRUE(m.DominatesOrEquals(y));
  EXPECT_EQ(m.CounterOf(1), 2);
  EXPECT_EQ(m.CounterOf(2), 1);
}

TEST(VectorClockTest, SerializationRoundTrip) {
  VectorClock c;
  c.Increment(3);
  c.Increment(700);
  c.Increment(3);
  std::string buf;
  c.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = VectorClock::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(c == decoded.value());
  EXPECT_TRUE(in.empty());
}

TEST(VersionedListTest, InsertRejectsObsolete) {
  std::vector<Versioned> list;
  VectorClock v1;
  v1.Increment(1);
  ASSERT_TRUE(InsertVersioned(&list, {v1, "a"}).ok());
  // Same clock again: obsolete.
  EXPECT_TRUE(InsertVersioned(&list, {v1, "b"}).IsObsoleteVersion());
  // Strictly older clock: obsolete.
  VectorClock v0;
  EXPECT_TRUE(InsertVersioned(&list, {v0, "c"}).IsObsoleteVersion());
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].value, "a");
}

TEST(VersionedListTest, InsertSupersedesDominated) {
  std::vector<Versioned> list;
  VectorClock v1;
  v1.Increment(1);
  ASSERT_TRUE(InsertVersioned(&list, {v1, "old"}).ok());
  VectorClock v2 = v1;
  v2.Increment(1);
  ASSERT_TRUE(InsertVersioned(&list, {v2, "new"}).ok());
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].value, "new");
}

TEST(VersionedListTest, InsertKeepsConcurrent) {
  std::vector<Versioned> list;
  VectorClock x, y;
  x.Increment(1);
  y.Increment(2);
  ASSERT_TRUE(InsertVersioned(&list, {x, "from-1"}).ok());
  ASSERT_TRUE(InsertVersioned(&list, {y, "from-2"}).ok());
  EXPECT_EQ(list.size(), 2u);
}

TEST(VersionedListTest, ResolveConcurrentDropsDominated) {
  VectorClock v1, v2, other;
  v1.Increment(1);
  v2 = v1;
  v2.Increment(1);
  other.Increment(9);
  std::vector<Versioned> all = {{v1, "old"}, {v2, "new"}, {other, "branch"}};
  auto resolved = ResolveConcurrent(all);
  ASSERT_EQ(resolved.size(), 2u);
  std::set<std::string> values;
  for (const auto& v : resolved) values.insert(v.value);
  EXPECT_EQ(values, (std::set<std::string>{"new", "branch"}));
}

TEST(VersionedListTest, EncodeDecodeRoundTrip) {
  VectorClock v1, v2;
  v1.Increment(1);
  v2.Increment(2);
  std::vector<Versioned> list = {{v1, "alpha"}, {v2, std::string("\0b", 2)}};
  std::string buf;
  EncodeVersionedList(list, &buf);
  auto decoded = DecodeVersionedList(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), list);
}

// ---------------------------------------------------------------------------
// Counts beyond their input: each list decoder reads an element count and
// used to reserve that many elements before reading one, so the six bytes
// of "varint 2^40" threw std::bad_alloc.
// ---------------------------------------------------------------------------

std::string VarintTwoToThe40() {
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 40);
  return buf;
}

TEST(VectorClockTest, DecodeRejectsACountBeyondItsInput) {
  const std::string buf = VarintTwoToThe40();
  ASSERT_EQ(buf.size(), 6u);
  Slice in(buf);
  EXPECT_EQ(VectorClock::DecodeFrom(&in).status().code(), Code::kCorruption);
  // The bound is exact: two one-byte entries are two bytes each.
  std::string two_entries;
  PutVarint64(&two_entries, 2);
  two_entries.append("\x01\x05\x02\x07", 4);
  Slice whole(two_entries);
  auto clock = VectorClock::DecodeFrom(&whole);
  ASSERT_OK(clock);
  EXPECT_EQ(clock.value().CounterOf(2), 7);
  Slice short_by_one(two_entries.data(), two_entries.size() - 1);
  EXPECT_EQ(VectorClock::DecodeFrom(&short_by_one).status().code(),
            Code::kCorruption);
}

TEST(VersionedListTest, DecodeRejectsACountBeyondItsInput) {
  EXPECT_EQ(DecodeVersionedList(VarintTwoToThe40()).status().code(),
            Code::kCorruption);
  // Empty clocks and empty values take the minimum two bytes per entry.
  std::vector<Versioned> smallest(3);
  std::string buf;
  EncodeVersionedList(smallest, &buf);
  ASSERT_EQ(buf.size(), 1u + 3 * 2);
  auto decoded = DecodeVersionedList(buf);
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded.value(), smallest);
}

TEST(WireTest, StringListRejectsACountBeyondItsInput) {
  EXPECT_EQ(DecodeStringList(VarintTwoToThe40()).status().code(),
            Code::kCorruption);
  const std::vector<std::string> empties(4);
  std::string buf;
  EncodeStringList(empties, &buf);
  auto decoded = DecodeStringList(buf);
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded.value(), empties);
}

// A server decodes a put's vector clock on its connection thread: a clock
// claiming 2^40 entries must come back as a Corruption reply, and leave
// the server serving.
TEST(VoldemortTcpTest, OversizedClockCountGetsCorruptionAndTheServerServesOn) {
  net::TcpTransport network;
  auto metadata = std::make_shared<ClusterMetadata>(Cluster::Uniform(
      {Node{0, net::MakeAddress(net::Tier::kVoldemort, 0), 0}}, 4));
  VoldemortServer server(0, metadata, &network);
  ASSERT_OK(server.AddStore("s"));

  std::string bad;
  PutLengthPrefixed(&bad, "s");
  PutLengthPrefixed(&bad, "k");
  bad += VarintTwoToThe40();
  EXPECT_EQ(network.Call("client", server.address(), "v.put", bad)
                .status()
                .code(),
            Code::kCorruption);

  VectorClock clock;
  clock.Increment(0);
  std::string put;
  EncodePutRequest("s", "k", Versioned{clock, "v1"}, Transform{}, &put);
  ASSERT_OK(network.Call("client", server.address(), "v.put", put));
  std::string get;
  EncodeGetRequest("s", "k", &get);
  auto reply = network.Call("client", server.address(), "v.get", get);
  ASSERT_OK(reply);
  auto versions = DecodeVersionedList(reply.value());
  ASSERT_OK(versions);
  ASSERT_EQ(versions.value().size(), 1u);
  EXPECT_EQ(versions.value()[0].value, "v1");
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

Cluster MakeCluster(int num_nodes, int num_partitions, int num_zones = 1) {
  std::vector<Node> nodes;
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(Node{i, net::MakeAddress(net::Tier::kVoldemort, i), i % num_zones});
  }
  return Cluster::Uniform(std::move(nodes), num_partitions);
}

TEST(RoutingTest, PreferenceListHasDistinctNodes) {
  Cluster cluster = MakeCluster(6, 24);
  auto routing = NewConsistentRoutingStrategy(&cluster, 3);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    auto nodes = routing->RouteRequest(key);
    ASSERT_EQ(nodes.size(), 3u) << key;
    EXPECT_EQ(std::set<int>(nodes.begin(), nodes.end()).size(), 3u);
  }
}

TEST(RoutingTest, DeterministicAndUsesMasterPartitionOwner) {
  Cluster cluster = MakeCluster(4, 16);
  auto routing = NewConsistentRoutingStrategy(&cluster, 2);
  auto a = routing->RouteRequest("some-key");
  auto b = routing->RouteRequest("some-key");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0],
            cluster.OwnerOfPartition(routing->MasterPartition("some-key")));
}

TEST(RoutingTest, SpreadAvoidsHotSpots) {
  // Non-order-preserving hashing: sequential keys spread over partitions.
  Cluster cluster = MakeCluster(4, 16);
  auto routing = NewConsistentRoutingStrategy(&cluster, 1);
  std::map<int, int> counts;
  const int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) {
    counts[routing->MasterPartition("user:" + std::to_string(i))]++;
  }
  EXPECT_EQ(counts.size(), 16u);
  for (const auto& [p, c] : counts) {
    EXPECT_GT(c, kKeys / 16 / 3) << "partition " << p << " underloaded";
    EXPECT_LT(c, kKeys / 16 * 3) << "partition " << p << " overloaded";
  }
}

TEST(RoutingTest, ZoneAwareSpansRequiredZones) {
  Cluster cluster = MakeCluster(6, 24, /*num_zones=*/2);
  auto routing = NewZoneAwareRoutingStrategy(&cluster, 3, /*required_zones=*/2);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "zk-" + std::to_string(i);
    std::set<int> zones;
    for (int node : routing->RouteRequest(key)) {
      zones.insert(cluster.GetNode(node)->zone_id);
    }
    EXPECT_GE(zones.size(), 2u) << key;
  }
}

TEST(RoutingTest, ReplicationCappedByNodeCount) {
  Cluster cluster = MakeCluster(2, 8);
  auto routing = NewConsistentRoutingStrategy(&cluster, 3);
  EXPECT_EQ(routing->RouteRequest("k").size(), 2u);
}

TEST(ChordBaselineTest, HopsGrowLogarithmically) {
  // The design ablation of Section II.A: full topology is O(1); Chord is
  // O(log N). Average hops for 1024 nodes should be well above the average
  // for 16 nodes, and in the ballpark of log2(N)/2.
  double avg16 = 0, avg1024 = 0;
  {
    ChordBaseline ring(16);
    for (int i = 0; i < 200; ++i) {
      avg16 += ring.LookupHops("key" + std::to_string(i), i % 16);
    }
    avg16 /= 200;
  }
  {
    ChordBaseline ring(1024);
    for (int i = 0; i < 200; ++i) {
      avg1024 += ring.LookupHops("key" + std::to_string(i), i % 1024);
    }
    avg1024 /= 200;
  }
  EXPECT_GT(avg1024, avg16);
  EXPECT_LT(avg16, 8);
  EXPECT_LT(avg1024, 14);  // ~log2(1024)=10, give slack
  EXPECT_GT(avg1024, 2);
}

// ---------------------------------------------------------------------------
// Failure detector
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, BansBelowThresholdAfterMinRequests) {
  ManualClock clock;
  FailureDetectorOptions options;
  options.threshold = 0.8;
  options.minimum_requests = 10;
  FailureDetector fd(options, &clock, [](int) { return false; });
  // 5 failures only: below minimum_requests, still available.
  for (int i = 0; i < 5; ++i) fd.RecordFailure(1);
  EXPECT_TRUE(fd.IsAvailable(1));
  for (int i = 0; i < 5; ++i) fd.RecordFailure(1);
  EXPECT_FALSE(fd.IsAvailable(1));
  EXPECT_EQ(fd.UnavailableCount(), 1);
}

TEST(FailureDetectorTest, HighSuccessRatioStaysAvailable) {
  ManualClock clock;
  FailureDetector fd(FailureDetectorOptions{}, &clock, [](int) { return true; });
  for (int i = 0; i < 95; ++i) fd.RecordSuccess(2);
  for (int i = 0; i < 5; ++i) fd.RecordFailure(2);
  EXPECT_TRUE(fd.IsAvailable(2));
}

TEST(FailureDetectorTest, RecoversViaAsyncProbe) {
  ManualClock clock;
  FailureDetectorOptions options;
  options.ban_millis = 500;
  bool node_up = false;
  FailureDetector fd(options, &clock, [&node_up](int) { return node_up; });
  for (int i = 0; i < 20; ++i) fd.RecordFailure(3);
  EXPECT_FALSE(fd.IsAvailable(3));
  // Ban interval elapses but probe still fails.
  clock.AdvanceMillis(600);
  EXPECT_FALSE(fd.IsAvailable(3));
  // Next interval: node is reachable again.
  node_up = true;
  clock.AdvanceMillis(600);
  EXPECT_TRUE(fd.IsAvailable(3));
  EXPECT_EQ(fd.UnavailableCount(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end cluster fixture
// ---------------------------------------------------------------------------

class VoldemortClusterTest : public ::testing::Test {
 protected:
  static constexpr char kStore[] = "test-store";

  void StartCluster(int num_nodes, int num_partitions, int num_zones = 1) {
    metadata_ = std::make_shared<ClusterMetadata>(
        MakeCluster(num_nodes, num_partitions, num_zones));
    for (int i = 0; i < num_nodes; ++i) {
      servers_.push_back(
          std::make_unique<VoldemortServer>(i, metadata_, &network_));
      ASSERT_OK(servers_.back()->AddStore(kStore));
    }
  }

  std::unique_ptr<StoreClient> MakeClient(StoreDefinition def,
                                          ClientOptions options = {}) {
    def.name = kStore;
    options.failure_detector.ban_millis = 50;
    return std::make_unique<StoreClient>("client", std::move(def), metadata_,
                                         &network_, &clock_, options);
  }

  net::Network network_;
  ManualClock clock_;
  std::shared_ptr<ClusterMetadata> metadata_;
  std::vector<std::unique_ptr<VoldemortServer>> servers_;
};

TEST_F(VoldemortClusterTest, PutGetRoundTrip) {
  StartCluster(4, 16);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 2});
  ASSERT_TRUE(client->PutValue("member:1", "profile-data").ok());
  auto r = client->Get("member:1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].value, "profile-data");
}

TEST_F(VoldemortClusterTest, GetMissingIsNotFound) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 2,
                            .required_reads = 1,
                            .required_writes = 1});
  EXPECT_TRUE(client->Get("ghost").status().IsNotFound());
}

TEST_F(VoldemortClusterTest, UpdateRequiresDescendingClock) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 2});
  ASSERT_TRUE(client->PutValue("k", "v1").ok());
  auto r = client->Get("k");
  ASSERT_TRUE(r.ok());

  // Writing with the read clock succeeds (descends).
  ASSERT_TRUE(client->Put("k", Versioned{r.value()[0].version, "v2"}).ok());
  // Writing again with the stale clock loses the optimistic race.
  Status stale = client->Put("k", Versioned{r.value()[0].version, "v3"});
  EXPECT_TRUE(stale.IsObsoleteVersion()) << stale.ToString();
  auto now = client->Get("k");
  ASSERT_TRUE(now.ok());
  ASSERT_EQ(now.value().size(), 1u);
  EXPECT_EQ(now.value()[0].value, "v2");
}

TEST_F(VoldemortClusterTest, ApplyUpdateRetriesOnConflict) {
  StartCluster(3, 9);
  auto c1 = MakeClient({.replication_factor = 3,
                        .required_reads = 2,
                        .required_writes = 2});
  ASSERT_TRUE(c1->PutValue("counter", "0").ok());

  // The applyUpdate loop increments a counter; run it many times and verify
  // no update is lost even though each one re-reads.
  for (int i = 0; i < 25; ++i) {
    Status s = c1->ApplyUpdate(
        "counter",
        [](const std::vector<Versioned>& current) {
          const int v = current.empty() ? 0 : std::stoi(current[0].value);
          return std::to_string(v + 1);
        },
        /*max_retries=*/5);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  auto r = c1->Get("counter");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].value, "25");
}

TEST_F(VoldemortClusterTest, TransformedPutAppendsServerSide) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 2});
  // Seed with an encoded empty list.
  std::string empty_list;
  EncodeStringList({}, &empty_list);
  ASSERT_TRUE(client->PutValue("follows:alice", empty_list).ok());

  for (const char* company : {"linkedin", "acme", "globex"}) {
    auto cur = client->Get("follows:alice");
    ASSERT_TRUE(cur.ok());
    Transform append;
    append.type = Transform::Type::kAppend;
    append.item = company;
    ASSERT_TRUE(
        client->Put("follows:alice", cur.value()[0].version, append).ok());
  }
  auto r = client->Get("follows:alice");
  ASSERT_TRUE(r.ok());
  auto list = DecodeStringList(r.value()[0].value);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value(),
            (std::vector<std::string>{"linkedin", "acme", "globex"}));
}

TEST_F(VoldemortClusterTest, TransformedGetReturnsSublist) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 2});
  std::string value;
  EncodeStringList({"a", "b", "c", "d", "e"}, &value);
  ASSERT_TRUE(client->PutValue("list", value).ok());

  Transform sublist;
  sublist.type = Transform::Type::kSublist;
  sublist.offset = 1;
  sublist.count = 3;
  auto r = client->Get("list", sublist);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto items = DecodeStringList(r.value()[0].value);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items.value(), (std::vector<std::string>{"b", "c", "d"}));
}

TEST_F(VoldemortClusterTest, DeleteRemovesDominatedVersions) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 2});
  ASSERT_TRUE(client->PutValue("doomed", "x").ok());
  auto r = client->Get("doomed");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(client->Delete("doomed", r.value()[0].version).ok());
  EXPECT_TRUE(client->Get("doomed").status().IsNotFound());
}

TEST_F(VoldemortClusterTest, QuorumFailsWhenTooManyNodesDown) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 2,
                            .required_writes = 3});
  network_.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, 0));
  // W=3 with one replica down can never be satisfied.
  Status s = client->PutValue("k", "v");
  EXPECT_FALSE(s.ok());
}

TEST_F(VoldemortClusterTest, ReadsSurviveNodeFailureWithQuorum) {
  StartCluster(4, 16);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 1,
                            .required_writes = 2});
  ASSERT_TRUE(client->PutValue("resilient", "v").ok());
  network_.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, client->PreferenceList("resilient")[0]));
  auto r = client->Get("resilient");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()[0].value, "v");
}

TEST_F(VoldemortClusterTest, ReadRepairHealsStaleReplica) {
  StartCluster(3, 9);
  ClientOptions options;
  options.enable_read_repair = true;
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 3,
                            .required_writes = 1},
                           options);
  const std::string key = "repair-me";
  const auto preference = client->PreferenceList(key);

  // Write v1 everywhere, then kill the last replica and write v2 (W=1 still
  // succeeds). The dead replica misses v2.
  ASSERT_TRUE(client->PutValue(key, "v1").ok());
  const int straggler = preference.back();
  network_.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, straggler));
  auto v1 = client->Get(key);
  // ^ also re-records failures; read with R=3 fails now, so drop to direct put
  ASSERT_TRUE(v1.status().ok() || v1.status().code() == Code::kInsufficientNodes);

  auto client_w = MakeClient({.replication_factor = 3,
                              .required_reads = 1,
                              .required_writes = 1});
  auto cur = client_w->Get(key);
  ASSERT_TRUE(cur.ok());
  ASSERT_TRUE(client_w->Put(key, Versioned{cur.value()[0].version, "v2"}).ok());

  // Straggler restarts with stale data.
  network_.SetNodeUp(net::MakeAddress(net::Tier::kVoldemort, straggler));
  std::string stale;
  ASSERT_TRUE(servers_[straggler]->GetEngine(kStore)->Get(key, &stale).ok());
  auto stale_list = DecodeVersionedList(stale);
  ASSERT_TRUE(stale_list.ok());
  EXPECT_EQ(stale_list.value()[0].value, "v1");

  // A read with R=3 touches the straggler and repairs it.
  clock_.AdvanceMillis(100);  // lift any failure-detector ban
  auto repaired_read = client->Get(key);
  ASSERT_TRUE(repaired_read.ok()) << repaired_read.status().ToString();
  EXPECT_EQ(repaired_read.value()[0].value, "v2");

  std::string healed;
  ASSERT_TRUE(servers_[straggler]->GetEngine(kStore)->Get(key, &healed).ok());
  auto healed_list = DecodeVersionedList(healed);
  ASSERT_TRUE(healed_list.ok());
  ASSERT_EQ(healed_list.value().size(), 1u);
  EXPECT_EQ(healed_list.value()[0].value, "v2");
}

// Regression test for a discarded-Status bug: ReadRepair used to ignore the
// result of the repair put, incrementing voldemort.read_repairs even when the
// write was rejected — the counter claimed a heal that never happened, and a
// genuinely dead repair target never fed the failure detector. A quota-starved
// straggler (admits the read, sheds the repair put with Overloaded) makes the
// failure deterministic: the honest accounting is read_repairs == 0,
// read_repair_failures == 1, and the replica is still stale.
TEST(VoldemortReadRepairAccountingTest, FailedRepairPutIsCountedHonestly) {
  net::Network network;
  ManualClock clock;
  auto metadata = std::make_shared<ClusterMetadata>(MakeCluster(3, 9));

  // Every server carries a near-zero quota (burst of a single request) but
  // starts with enforcement off, so setup traffic is never charged. Only the
  // straggler's quota is armed later.
  VoldemortServerOptions quota;
  quota.quota_requests_per_sec = 1e-6;
  quota.quota_burst = 1;
  std::vector<std::unique_ptr<VoldemortServer>> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(
        std::make_unique<VoldemortServer>(i, metadata, &network, quota));
    servers.back()->SetQuotaEnforcing(false);
    ASSERT_OK(servers.back()->AddStore("test-store"));
  }

  ClientOptions options;
  options.enable_read_repair = true;
  options.failure_detector.ban_millis = 50;
  StoreClient reader("reader", StoreDefinition{"test-store", 3, 3, 1},
                     metadata, &network, &clock, options);
  StoreClient writer("writer", StoreDefinition{"test-store", 3, 1, 1},
                     metadata, &network, &clock, options);

  const std::string key = "repair-quota";
  const auto preference = reader.PreferenceList(key);
  const int straggler = preference.back();

  // v1 lands everywhere; the straggler then misses v2.
  ASSERT_OK(writer.PutValue(key, "v1"));
  network.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, straggler));
  auto cur = writer.Get(key);
  ASSERT_OK(cur);
  ASSERT_OK(writer.Put(key, Versioned{cur.value()[0].version, "v2"}));
  network.SetNodeUp(net::MakeAddress(net::Tier::kVoldemort, straggler));
  clock.AdvanceMillis(100);  // lift any failure-detector ban

  // Arm the straggler's quota. The reader has never been charged there, so
  // its bucket is minted full at the next request: one token, which the R=3
  // get consumes. The follow-up repair put is shed with Overloaded.
  servers[straggler]->SetQuotaEnforcing(true);
  auto repaired_read = reader.Get(key);
  ASSERT_OK(repaired_read);
  EXPECT_EQ(repaired_read.value()[0].value, "v2");

  auto* repairs = network.metrics()->GetCounter("voldemort.read_repairs",
                                                {{"client", "reader"}});
  auto* repair_failures = network.metrics()->GetCounter(
      "voldemort.read_repair_failures", {{"client", "reader"}});
  EXPECT_EQ(repairs->Value(), 0);
  EXPECT_EQ(repair_failures->Value(), 1);
  // Overloaded means the node is alive — shedding a repair must not ban it.
  EXPECT_TRUE(reader.failure_detector()->IsAvailable(straggler));
  // And the replica really is still stale: nothing was repaired.
  std::string stale;
  ASSERT_OK(servers[straggler]->GetEngine("test-store")->Get(key, &stale));
  auto stale_list = DecodeVersionedList(stale);
  ASSERT_OK(stale_list);
  EXPECT_EQ(stale_list.value()[0].value, "v1");

  // Quota lifted, the next get's repair lands and is counted exactly once.
  servers[straggler]->SetQuotaEnforcing(false);
  ASSERT_OK(reader.Get(key));
  EXPECT_EQ(repairs->Value(), 1);
  EXPECT_EQ(repair_failures->Value(), 1);
  std::string healed;
  ASSERT_OK(servers[straggler]->GetEngine("test-store")->Get(key, &healed));
  auto healed_list = DecodeVersionedList(healed);
  ASSERT_OK(healed_list);
  ASSERT_EQ(healed_list.value().size(), 1u);
  EXPECT_EQ(healed_list.value()[0].value, "v2");
}

TEST_F(VoldemortClusterTest, HintedHandoffParksAndDeliversSlops) {
  StartCluster(4, 16);
  ClientOptions options;
  options.enable_hinted_handoff = true;
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 1,
                            .required_writes = 1},
                           options);
  const std::string key = "hinted";
  const auto preference = client->PreferenceList(key);
  const int victim = preference[1];
  network_.SetNodeDown(net::MakeAddress(net::Tier::kVoldemort, victim));

  ASSERT_TRUE(client->PutValue(key, "payload").ok());

  // The hint must be parked on the node outside the preference list.
  int64_t total_slops = 0;
  for (const auto& server : servers_) total_slops += server->SlopCount();
  EXPECT_EQ(total_slops, 1);

  // Victim restarts; pushing slops delivers the write.
  network_.SetNodeUp(net::MakeAddress(net::Tier::kVoldemort, victim));
  int delivered = 0;
  for (const auto& server : servers_) delivered += server->PushSlops();
  EXPECT_EQ(delivered, 1);

  std::string value;
  ASSERT_TRUE(servers_[victim]->GetEngine(kStore)->Get(key, &value).ok());
  auto list = DecodeVersionedList(value);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value()[0].value, "payload");
}

TEST_F(VoldemortClusterTest, ZoneAwareWritesSpanZones) {
  StartCluster(6, 24, /*num_zones=*/2);
  auto client = MakeClient({.replication_factor = 3,
                            .required_reads = 1,
                            .required_writes = 2,
                            .zone_count_reads = 0,
                            .zone_count_writes = 2});
  ASSERT_TRUE(client->PutValue("zoned", "v").ok());
  std::set<int> zones;
  for (int node : client->PreferenceList("zoned")) {
    zones.insert(metadata_->GetNodeUnsafe(node)->zone_id);
  }
  EXPECT_GE(zones.size(), 2u);
}

TEST_F(VoldemortClusterTest, AdminAddDeleteStoreEverywhere) {
  StartCluster(3, 9);
  AdminClient admin(metadata_, &network_);
  ASSERT_TRUE(admin.AddStoreEverywhere("new-store").ok());
  for (const auto& server : servers_) {
    EXPECT_TRUE(server->HasStore("new-store"));
  }
  ASSERT_TRUE(admin.DeleteStoreEverywhere("new-store").ok());
  for (const auto& server : servers_) {
    EXPECT_FALSE(server->HasStore("new-store"));
  }
}

TEST_F(VoldemortClusterTest, RebalanceMovesPartitionWithoutDataLoss) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 1,
                            .required_reads = 1,
                            .required_writes = 1});
  // Write keys, remember which partition each belongs to.
  const Cluster cluster = metadata_->SnapshotCluster();
  auto routing = NewConsistentRoutingStrategy(&cluster, 1);
  std::vector<std::string> keys_in_p0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "rk-" + std::to_string(i);
    ASSERT_TRUE(client->PutValue(key, "v" + std::to_string(i)).ok());
    if (routing->MasterPartition(key) == 0) keys_in_p0.push_back(key);
  }
  ASSERT_FALSE(keys_in_p0.empty());
  const int old_owner = metadata_->OwnerOfPartition(0);
  const int new_owner = (old_owner + 1) % 3;

  // Expand onto the new node.
  AdminClient admin(metadata_, &network_);
  ASSERT_TRUE(admin.MigratePartition(kStore, 0, new_owner).ok());
  EXPECT_EQ(metadata_->OwnerOfPartition(0), new_owner);

  // All keys must remain readable, now routed to the new owner.
  for (const std::string& key : keys_in_p0) {
    auto r = client->Get(key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
  }
  // And the new owner holds them locally.
  std::string value;
  EXPECT_TRUE(
      servers_[new_owner]->GetEngine(kStore)->Get(keys_in_p0[0], &value).ok());
}

TEST_F(VoldemortClusterTest, RedirectionDuringMigrationServesRequests) {
  StartCluster(3, 9);
  auto client = MakeClient({.replication_factor = 1,
                            .required_reads = 1,
                            .required_writes = 1});
  // Find a key on partition 0.
  const Cluster cluster = metadata_->SnapshotCluster();
  auto routing = NewConsistentRoutingStrategy(&cluster, 1);
  std::string key;
  for (int i = 0;; ++i) {
    key = "mig-" + std::to_string(i);
    if (routing->MasterPartition(key) == 0) break;
  }
  const int old_owner = metadata_->OwnerOfPartition(0);
  const int new_owner = (old_owner + 1) % 3;

  // Manually enter the migration window: writes through the old owner are
  // pair-routed — applied locally AND forwarded to the new owner — so the
  // partition stays fully served from the source while the destination
  // accumulates every write it will need at cutover (DESIGN.md §13).
  metadata_->StartMigration(0, new_owner);
  ASSERT_TRUE(client->PutValue(key, "written-during-migration").ok());
  // Both sides of the pair must hold the value: the source because it still
  // owns the partition, the destination because the cutover does NOT
  // re-copy.
  std::string value;
  EXPECT_TRUE(servers_[new_owner]->GetEngine(kStore)->Get(key, &value).ok());
  EXPECT_TRUE(servers_[old_owner]->GetEngine(kStore)->Get(key, &value).ok());
  auto r = client->Get(key);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].value, "written-during-migration");
  metadata_->FinishMigration(0);
  // After cutover the key reads back through the new owner.
  auto after = client->Get(key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()[0].value, "written-during-migration");
}

// ---------------------------------------------------------------------------
// Read-only pipeline (build -> pull -> swap)
// ---------------------------------------------------------------------------

class ReadOnlyPipelineTest : public VoldemortClusterTest {
 protected:
  static constexpr char kRoStore[] = "pymk";

  void StartReadOnly(int num_nodes, int num_partitions) {
    StartCluster(num_nodes, num_partitions);
    for (auto& server : servers_) ASSERT_OK(server->AddReadOnlyStore(kRoStore));
    for (auto& server : servers_) controller_servers_.push_back(server.get());
  }

  std::map<std::string, std::string> MakeRecords(int n, const std::string& tag) {
    std::map<std::string, std::string> records;
    for (int i = 0; i < n; ++i) {
      records["member:" + std::to_string(i)] =
          tag + "-recs-" + std::to_string(i);
    }
    return records;
  }

  BulkFileRepository repo_;
  std::vector<VoldemortServer*> controller_servers_;
};

TEST_F(ReadOnlyPipelineTest, BuildPullSwapServesData) {
  StartReadOnly(3, 9);
  auto records = MakeRecords(500, "v1");
  repo_.Publish(kRoStore, 1,
                BulkBuild(records, metadata_->SnapshotCluster(), 2));
  ReadOnlyController controller(controller_servers_, &repo_);
  ASSERT_TRUE(controller.Pull(kRoStore, 1).ok());
  ASSERT_TRUE(controller.SwapAll(kRoStore, 1).ok());

  StoreDefinition def;
  def.name = kRoStore;
  def.replication_factor = 2;
  def.required_reads = 1;
  def.required_writes = 1;
  StoreClient client("ro-client", def, metadata_, &network_, &clock_);
  for (int i = 0; i < 500; i += 37) {
    const std::string key = "member:" + std::to_string(i);
    auto r = client.ReadOnlyGet(key);
    ASSERT_TRUE(r.ok()) << key << ": " << r.status().ToString();
    EXPECT_EQ(r.value(), records[key]);
  }
  EXPECT_TRUE(client.ReadOnlyGet("member:99999").status().IsNotFound());
}

TEST_F(ReadOnlyPipelineTest, NewVersionSwapsAtomicallyAndRollsBack) {
  StartReadOnly(3, 9);
  ReadOnlyController controller(controller_servers_, &repo_);
  repo_.Publish(kRoStore, 1,
                BulkBuild(MakeRecords(100, "v1"), metadata_->SnapshotCluster(), 2));
  repo_.Publish(kRoStore, 2,
                BulkBuild(MakeRecords(100, "v2"), metadata_->SnapshotCluster(), 2));
  ASSERT_TRUE(controller.Pull(kRoStore, 1).ok());
  ASSERT_TRUE(controller.SwapAll(kRoStore, 1).ok());
  ASSERT_TRUE(controller.Pull(kRoStore, 2).ok());
  ASSERT_TRUE(controller.SwapAll(kRoStore, 2).ok());

  StoreDefinition def;
  def.name = kRoStore;
  def.replication_factor = 2;
  def.required_reads = 1;
  def.required_writes = 1;
  StoreClient client("ro-client", def, metadata_, &network_, &clock_);
  EXPECT_EQ(client.ReadOnlyGet("member:5").value(), "v2-recs-5");

  // Data problem discovered: instantaneous rollback to v1 on all nodes.
  ASSERT_TRUE(controller.RollbackAll(kRoStore).ok());
  EXPECT_EQ(client.ReadOnlyGet("member:5").value(), "v1-recs-5");
}

TEST_F(ReadOnlyPipelineTest, SwapToMissingVersionFails) {
  StartReadOnly(2, 4);
  ReadOnlyController controller(controller_servers_, &repo_);
  EXPECT_FALSE(controller.SwapAll(kRoStore, 42).ok());
}

TEST_F(ReadOnlyPipelineTest, ThrottleCallbackObservesChunks) {
  StartReadOnly(2, 4);
  repo_.Publish(kRoStore, 1,
                BulkBuild(MakeRecords(400, "v1"), metadata_->SnapshotCluster(), 1));
  ReadOnlyController controller(controller_servers_, &repo_);
  PullOptions options;
  options.throttle_chunk_bytes = 512;
  int callbacks = 0;
  options.throttle_callback = [&callbacks](int64_t) { ++callbacks; };
  ASSERT_TRUE(controller.Pull(kRoStore, 1, options).ok());
  EXPECT_GT(callbacks, 4);  // multiple throttle pauses happened
}

TEST_F(ReadOnlyPipelineTest, IndexEntriesSortedByMd5) {
  Cluster cluster = MakeCluster(1, 1);
  auto result = BulkBuild(MakeRecords(300, "x"), cluster, 1);
  const ReadOnlyFiles& files = result.files_per_node.at(0);
  ASSERT_EQ(files.index.size() % 24, 0u);
  for (size_t i = 24; i < files.index.size(); i += 24) {
    EXPECT_LT(memcmp(files.index.data() + i - 24, files.index.data() + i, 16),
              0)
        << "index not sorted at entry " << i / 24;
  }
}

TEST_F(ReadOnlyPipelineTest, SearchVerifiesStoredKey) {
  // Direct unit test of the binary search layer.
  Cluster cluster = MakeCluster(1, 1);
  std::map<std::string, std::string> records{{"alpha", "1"}, {"beta", "2"}};
  auto result = BulkBuild(records, cluster, 1);
  const ReadOnlyFiles& files = result.files_per_node.at(0);
  auto value = ReadOnlySearch(files, "alpha");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), "1");
  EXPECT_TRUE(ReadOnlySearch(files, "gamma").status().IsNotFound());
}


TEST_F(ReadOnlyPipelineTest, InterpolationSearchAgreesWithBinarySearch) {
  // The future-work index format (II.C) must be a drop-in: identical results
  // on hits, misses and collisions, over the same files.
  Cluster cluster = MakeCluster(1, 1);
  auto result = BulkBuild(MakeRecords(5000, "x"), cluster, 1);
  const ReadOnlyFiles& files = result.files_per_node.at(0);
  for (int i = 0; i < 5000; i += 7) {
    const std::string key = "member:" + std::to_string(i);
    const auto binary = ReadOnlySearch(files, key);
    const auto interp = ReadOnlyInterpolationSearch(files, key);
    ASSERT_TRUE(binary.ok());
    ASSERT_TRUE(interp.ok()) << key;
    EXPECT_EQ(interp.value(), binary.value());
  }
  for (int i = 0; i < 200; ++i) {
    const std::string missing = "ghost:" + std::to_string(i);
    EXPECT_EQ(ReadOnlySearch(files, missing).status().IsNotFound(),
              ReadOnlyInterpolationSearch(files, missing)
                  .status()
                  .IsNotFound());
  }
  // Empty index.
  ReadOnlyFiles empty;
  EXPECT_TRUE(
      ReadOnlyInterpolationSearch(empty, "k").status().IsNotFound());
}

}  // namespace
}  // namespace lidi::voldemort
