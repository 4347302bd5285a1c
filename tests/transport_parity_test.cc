#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "espresso/router.h"
#include "espresso/schema.h"
#include "helix/helix.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "voldemort/cluster.h"
#include "voldemort/routing.h"
#include "voldemort/server.h"
#include "voldemort/wire.h"
#include "zk/zookeeper.h"

#include "status_test_util.h"

namespace lidi {
namespace {

/// Regression suite for the Transport error contract: unknown-method,
/// unknown-endpoint, post-shutdown dispatch, expired deadline — and the
/// overload contract
/// (dispatch-queue shed, per-client quota, router admission) — must produce
/// the SAME typed error with the SAME message on both Call paths
/// (owned-string and payload) and on both backends (sim and TCP). Tier
/// retry logic branches on these codes, so a backend that drifted would
/// change cluster behavior silently.
class TransportParityTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<net::Transport> Make(int64_t max_dispatch_inflight = 0) {
    if (std::string(GetParam()) == "sim") {
      return std::make_unique<net::Network>(/*fault_seed=*/42,
                                            /*metrics=*/nullptr,
                                            /*clock=*/nullptr,
                                            max_dispatch_inflight);
    }
    net::TcpTransportOptions options;
    options.max_dispatch_inflight = max_dispatch_inflight;
    return std::make_unique<net::TcpTransport>(options);
  }
};

TEST_P(TransportParityTest, UnknownEndpointIsNotFoundOnBothPaths) {
  auto t = Make();
  const Status via_string = t->Call("c", "ghost", "m", "").status();
  const Status via_payload = t->CallPayload("c", "ghost", "m", "").status();
  EXPECT_EQ(via_string.code(), Code::kNotFound);
  EXPECT_EQ(via_string.message(), "no endpoint: ghost");
  EXPECT_EQ(via_payload.code(), via_string.code());
  EXPECT_EQ(via_payload.message(), via_string.message());
}

TEST_P(TransportParityTest, UnknownMethodIsNotFoundOnBothPaths) {
  auto t = Make();
  t->Register("s", "known", [](Slice) -> Result<std::string> {
    return std::string("ok");
  });
  const Status via_string = t->Call("c", "s", "missing", "").status();
  const Status via_payload = t->CallPayload("c", "s", "missing", "").status();
  EXPECT_EQ(via_string.code(), Code::kNotFound);
  EXPECT_EQ(via_string.message(), "no method missing at s");
  EXPECT_EQ(via_payload.code(), via_string.code());
  EXPECT_EQ(via_payload.message(), via_string.message());
}

TEST_P(TransportParityTest, PostShutdownDispatchIsUnavailableOnBothPaths) {
  auto t = Make();
  t->Register("s", "m", [](Slice) -> Result<std::string> {
    return std::string("ok");
  });
  ASSERT_TRUE(t->Call("c", "s", "m", "").ok());
  t->Shutdown();
  const Status via_string = t->Call("c", "s", "m", "").status();
  const Status via_payload = t->CallPayload("c", "s", "m", "").status();
  EXPECT_EQ(via_string.code(), Code::kUnavailable);
  EXPECT_EQ(via_string.message(), "transport shut down");
  EXPECT_EQ(via_payload.code(), via_string.code());
  EXPECT_EQ(via_payload.message(), via_string.message());
  // Shutdown is idempotent and sticky.
  t->Shutdown();
  EXPECT_EQ(t->Call("c", "s", "m", "").status().code(), Code::kUnavailable);
}

TEST_P(TransportParityTest, ExpiredDeadlineIsTimeoutAndCountsOnlyTheSender) {
  auto t = Make();
  std::atomic<bool> ran{false};
  t->Register("s", "m", [&ran](Slice) -> Result<std::string> {
    ran = true;
    return std::string("late");
  });
  net::CallOptions options;
  options.deadline_micros = 1;  // long past on either backend's clock
  const Status via_string = t->Call("c", "s", "m", "", options).status();
  const Status via_payload =
      t->CallPayload("c", "s", "m", "", options).status();
  EXPECT_EQ(via_string.code(), Code::kTimeout);
  EXPECT_EQ(via_string.message(), "deadline budget exhausted calling s");
  EXPECT_EQ(via_payload.code(), via_string.code());
  EXPECT_EQ(via_payload.message(), via_string.message());
  // The call was placed (the sender counts it) but never dispatched.
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(t->GetStats("c").calls_sent, 2);
  EXPECT_EQ(t->GetStats("s").calls_received, 0);
}

TEST_P(TransportParityTest, StringPathIsAThinWrapperOverPayloadPath) {
  auto t = Make();
  // A handler registered through the string surface serves the payload
  // surface and vice versa: one handler table, one dispatch path.
  t->Register("s", "m1", [](Slice req) -> Result<std::string> {
    return "s:" + req.ToString();
  });
  t->RegisterPayload("s", "m2", [](Slice req) -> Result<PinnedSlice> {
    return PinnedSlice::Own("p:" + req.ToString());
  });
  auto p1 = t->CallPayload("c", "s", "m1", "x");
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value().ToString(), "s:x");
  auto s2 = t->Call("c", "s", "m2", "y");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value(), "p:y");
}

TEST_P(TransportParityTest, HandlerErrorsPassThroughVerbatim) {
  auto t = Make();
  t->Register("s", "m", [](Slice) -> Result<std::string> {
    return Status::InsufficientNodes("1 of 2 required replicas");
  });
  const Status s = t->Call("c", "s", "m", "").status();
  EXPECT_EQ(s.code(), Code::kInsufficientNodes);
  EXPECT_EQ(s.message(), "1 of 2 required replicas");
}

TEST_P(TransportParityTest, StatsCountBothDirections) {
  auto t = Make();
  t->Register("s", "m", [](Slice) -> Result<std::string> {
    return std::string("four");
  });
  ASSERT_TRUE(t->Call("c", "s", "m", "abc").ok());
  EXPECT_EQ(t->GetStats("c").calls_sent, 1);
  EXPECT_EQ(t->GetStats("c").bytes_sent, 3);
  EXPECT_EQ(t->GetStats("s").calls_received, 1);
  EXPECT_EQ(t->total_calls(), 1);
  // GetStats is a view over the registry: the snapshot holds the same
  // numbers, and the call's latency landed under its method.
  const obs::RegistrySnapshot snap = t->metrics()->Snapshot();
  for (const char* endpoint : {"c", "s"}) {
    const net::EndpointStats stats = t->GetStats(endpoint);
    const obs::Labels labels{{"endpoint", endpoint}};
    EXPECT_EQ(snap.Value("net.calls_sent", labels), stats.calls_sent);
    EXPECT_EQ(snap.Value("net.calls_received", labels), stats.calls_received);
    EXPECT_EQ(snap.Value("net.bytes_sent", labels), stats.bytes_sent);
    EXPECT_EQ(snap.Value("net.bytes_received", labels), stats.bytes_received);
  }
  const obs::InstrumentSnapshot* latency =
      snap.Find("net.call_micros", {{"method", "m"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.count, 1);
  t->ResetStats();
  EXPECT_EQ(t->GetStats("c").calls_sent, 0);
  EXPECT_EQ(t->total_calls(), 0);
}

TEST_P(TransportParityTest, BoundedDispatchShedsOverloadedBeforeAnyWork) {
  // One dispatch slot: the outer handler holds it, so the nested call it
  // places is refused admission — reject-before-work, the typed Overloaded
  // error (not a timeout, not Unavailable) propagates back verbatim.
  auto t = Make(/*max_dispatch_inflight=*/1);
  t->Register("s2", "m", [](Slice) -> Result<std::string> {
    return std::string("never reached");
  });
  auto* raw = t.get();
  t->Register("s", "outer", [raw](Slice) -> Result<std::string> {
    auto nested = raw->Call("s", "s2", "m", "");
    if (!nested.ok()) return nested.status();
    return nested.value();
  });
  const Status shed = t->Call("c", "s", "outer", "").status();
  EXPECT_EQ(shed.code(), Code::kOverloaded);
  EXPECT_TRUE(shed.IsOverloaded());
  EXPECT_EQ(shed.message(), "dispatch queue full at s2");
  EXPECT_EQ(t->metrics()->Snapshot().Value("net.dispatch.shed",
                                           {{"endpoint", "s2"}}),
            1);
  EXPECT_EQ(t->GetStats("s2").calls_received, 0);
  // With the outer handler done, the slot is free again: no sticky state.
  auto ok = t->Call("c", "s2", "m", "");
  ASSERT_TRUE(ok.ok());
}

TEST_P(TransportParityTest, VoldemortQuotaExceededIsOverloadedOnBothBackends) {
  auto t = Make();
  std::vector<voldemort::Node> nodes{
      {0, net::MakeAddress(net::Tier::kVoldemort, 0), 0}};
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 4));
  voldemort::VoldemortServerOptions options;
  options.quota_requests_per_sec = 1e-6;  // effectively no refill mid-test
  options.quota_burst = 1;
  voldemort::VoldemortServer server(0, metadata, t.get(), options);
  ASSERT_OK(server.AddStore("st"));
  // The quota gate runs before request decode, so even a garbage request
  // spends the client's one token...
  const Status first = t->Call("c", server.address(), "v.get", "").status();
  EXPECT_NE(first.code(), Code::kOverloaded);
  // ...and the next request from the same client is shed, typed and
  // attributed. A different client still has its own bucket.
  const Status second = t->Call("c", server.address(), "v.get", "").status();
  EXPECT_EQ(second.code(), Code::kOverloaded);
  EXPECT_EQ(second.message(),
            "get quota exceeded for c at " + server.address());
  EXPECT_NE(t->Call("other", server.address(), "v.get", "").status().code(),
            Code::kOverloaded);
  EXPECT_EQ(server.quota_rejects(), 1);
}

TEST_P(TransportParityTest, RouterAdmissionRejectIsOverloadedOnBothBackends) {
  auto t = Make();
  zk::ZooKeeper zookeeper;
  espresso::SchemaRegistry registry;
  helix::HelixController helix("h", &zookeeper);
  espresso::RouterOptions options;
  options.max_inflight = 1;
  espresso::Router router("r", &registry, &helix, t.get(), options);
  // Occupy the single admission slot from the outside: the next request is
  // rejected before the URI is even parsed (no storage tier exists here at
  // all, and the error is still the typed admission reject).
  ASSERT_TRUE(router.inflight_limiter()->TryEnter());
  const Status rejected = router.GetRecord("/db/t/r").status();
  EXPECT_EQ(rejected.code(), Code::kOverloaded);
  EXPECT_EQ(rejected.message(), "get rejected: router r at in-flight limit");
  EXPECT_EQ(router.admission_rejects(), 1);
  router.inflight_limiter()->Exit();
  // Slot free again: the same request now fails on routing, not admission.
  EXPECT_NE(router.GetRecord("/db/t/r").status().code(), Code::kOverloaded);
}

TEST_P(TransportParityTest, MidMigrationPairWriteContractOnBothBackends) {
  // The mid-migration error contract (ISSUE 10 satellite): while a
  // partition migrates away, a write to the old owner either succeeds
  // proxy-forwarded (applied at BOTH owners) or fails with the stable,
  // server-generated Unavailable message — never the backend's own
  // transport failure text. Espresso's router and the rebalance executor
  // both branch on this exact error, so sim and TCP must agree byte for
  // byte.
  auto t = Make();
  std::vector<voldemort::Node> nodes{
      {0, net::MakeAddress(net::Tier::kVoldemort, 0), 0},
      {1, net::MakeAddress(net::Tier::kVoldemort, 1), 0}};
  auto metadata = std::make_shared<voldemort::ClusterMetadata>(
      voldemort::Cluster::Uniform(nodes, 4));
  voldemort::VoldemortServerOptions options;
  options.replication_factor = 1;
  voldemort::VoldemortServer source(0, metadata, t.get(), options);
  ASSERT_OK(source.AddStore("st"));

  // Pick a key node 0 masters, then start migrating its partition to node
  // 1 — which has NO transport endpoint yet, so the pair write cannot be
  // delivered.
  const voldemort::Cluster cluster = metadata->SnapshotCluster();
  auto routing = voldemort::NewConsistentRoutingStrategy(&cluster, 1);
  std::string key;
  int partition = -1;
  for (int i = 0; i < 256 && partition < 0; ++i) {
    const std::string candidate = "parity-key-" + std::to_string(i);
    const int p = routing->MasterPartition(candidate);
    if (cluster.OwnerOfPartition(p) == 0) {
      key = candidate;
      partition = p;
    }
  }
  ASSERT_GE(partition, 0);
  metadata->StartMigration(partition, /*to_node=*/1);

  const auto put_request = [&key](int counter) {
    voldemort::VectorClock clock;
    for (int i = 0; i < counter; ++i) clock.Increment(0);
    std::string request;
    voldemort::EncodePutRequest(
        "st", key, voldemort::Versioned{clock, "during-migration"},
        voldemort::Transform{}, &request);
    return request;
  };

  const std::string expected =
      "handoff pair write to " + net::MakeAddress(net::Tier::kVoldemort, 1) +
      " failed for partition " + std::to_string(partition);
  const Status via_string =
      t->Call("c", source.address(), "v.put", put_request(1)).status();
  EXPECT_EQ(via_string.code(), Code::kUnavailable);
  EXPECT_EQ(via_string.message(), expected);
  const Status via_payload =
      t->CallPayload("c", source.address(), "v.put", put_request(2)).status();
  EXPECT_EQ(via_payload.code(), via_string.code());
  EXPECT_EQ(via_payload.message(), via_string.message());

  // Destination comes up: the same write now succeeds, proxy-forwarded —
  // readable at BOTH owners before cutover (the pair-routing half of the
  // contract).
  voldemort::VoldemortServer destination(1, metadata, t.get(), options);
  ASSERT_OK(destination.AddStore("st"));
  ASSERT_OK(t->Call("c", source.address(), "v.put", put_request(3)).status());
  std::string get_request;
  voldemort::EncodeGetRequest("st", key, &get_request);
  for (const auto& owner : {source.address(), destination.address()}) {
    auto read = t->Call("c", owner, "v.get-noredirect", get_request);
    ASSERT_OK(read.status());
    auto versions = voldemort::DecodeVersionedList(read.value());
    ASSERT_OK(versions.status());
    ASSERT_FALSE(versions.value().empty());
    EXPECT_EQ(versions.value().back().value, "during-migration")
        << "missing pair-written value at " << owner;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportParityTest,
                         ::testing::Values("sim", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace lidi
