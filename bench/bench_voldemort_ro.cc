// E2 — Voldemort read-only store lookups.
//
// Paper (II.C): "the read-only cluster serves about 9K reads per second with
// an average latency of less than 1 ms"; the PYMK store achieves "average
// latency in sub-milliseconds".
//
// Reports binary-search lookup latency on bulk-built stores of increasing
// size, and compares the read-only engine against the read-write path for
// the same data (the who-wins shape: RO reads are cheaper than quorum
// reads).

#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "net/address.h"
#include "net/network.h"
#include "voldemort/bulk_build.h"
#include "voldemort/client.h"
#include "voldemort/server.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::voldemort;

int main() {
  bench::Header("E2: read-only store lookup latency",
                "<1 ms average; PYMK sub-millisecond (paper II.C)");

  for (int num_keys : {10'000, 100'000, 500'000}) {
    net::Network network;
    std::vector<Node> nodes;
    for (int i = 0; i < 3; ++i) nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    auto metadata =
        std::make_shared<ClusterMetadata>(Cluster::Uniform(nodes, 12));
    std::vector<std::unique_ptr<VoldemortServer>> servers;
    std::vector<VoldemortServer*> ptrs;
    for (int i = 0; i < 3; ++i) {
      servers.push_back(std::make_unique<VoldemortServer>(i, metadata, &network));
      LIDI_MUST_OK(servers.back()->AddReadOnlyStore("pymk"));
      LIDI_MUST_OK(servers.back()->AddStore("pymk-rw"));
      ptrs.push_back(servers.back().get());
    }

    Random rng(5);
    std::map<std::string, std::string> records;
    for (int i = 0; i < num_keys; ++i) {
      records["member:" + std::to_string(i)] = rng.Bytes(120);
    }
    BulkFileRepository repo;
    repo.Publish("pymk", 1, BulkBuild(records, metadata->SnapshotCluster(), 2));
    ReadOnlyController controller(ptrs, &repo);
    LIDI_MUST_OK(controller.Pull("pymk", 1));
    LIDI_MUST_OK(controller.SwapAll("pymk", 1));

    StoreDefinition def;
    def.name = "pymk";
    def.replication_factor = 2;
    def.required_reads = 1;
    def.required_writes = 1;
    StoreClient client("ro-client", def, metadata, &network,
                       SystemClock::Default());

    const int kLookups = 30000;
    bench::Samples lat;
    bench::Stopwatch total;
    for (int i = 0; i < kLookups; ++i) {
      const std::string key =
          "member:" + std::to_string(rng.Uniform(num_keys));
      bench::Stopwatch op;
      LIDI_MUST_OK(client.ReadOnlyGet(key));
      lat.Record(op.ElapsedMicros());
    }
    bench::Row("%7d keys | %7.0f reads/s | us: %s", num_keys,
               kLookups / total.ElapsedSeconds(), lat.Summary().c_str());
  }

  bench::Header("E2 comparison: read-only engine vs read-write quorum reads",
                "offloading index construction keeps live reads cheap (II.B)");
  {
    net::Network network;
    std::vector<Node> nodes;
    for (int i = 0; i < 3; ++i) nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    auto metadata =
        std::make_shared<ClusterMetadata>(Cluster::Uniform(nodes, 12));
    std::vector<std::unique_ptr<VoldemortServer>> servers;
    std::vector<VoldemortServer*> ptrs;
    for (int i = 0; i < 3; ++i) {
      servers.push_back(std::make_unique<VoldemortServer>(i, metadata, &network));
      LIDI_MUST_OK(servers.back()->AddReadOnlyStore("data-ro"));
      LIDI_MUST_OK(servers.back()->AddStore("data-rw"));
      ptrs.push_back(servers.back().get());
    }
    const int kKeys = 20000;
    Random rng(6);
    std::map<std::string, std::string> records;
    for (int i = 0; i < kKeys; ++i) {
      records["k" + std::to_string(i)] = rng.Bytes(120);
    }
    BulkFileRepository repo;
    repo.Publish("data-ro", 1,
                 BulkBuild(records, metadata->SnapshotCluster(), 2));
    ReadOnlyController controller(ptrs, &repo);
    LIDI_MUST_OK(controller.Pull("data-ro", 1));
    LIDI_MUST_OK(controller.SwapAll("data-ro", 1));

    StoreDefinition ro_def{"data-ro", 2, 1, 1};
    StoreDefinition rw_def{"data-rw", 3, 2, 2};
    StoreClient ro_client("c", ro_def, metadata, &network,
                          SystemClock::Default());
    StoreClient rw_client("c", rw_def, metadata, &network,
                          SystemClock::Default());
    for (const auto& [k, v] : records) LIDI_MUST_OK(rw_client.PutValue(k, v));

    bench::Samples ro_lat, rw_lat;
    for (int i = 0; i < 20000; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(kKeys));
      bench::Stopwatch a;
      LIDI_MUST_OK(ro_client.ReadOnlyGet(key));
      ro_lat.Record(a.ElapsedMicros());
      bench::Stopwatch b;
      LIDI_MUST_OK(rw_client.Get(key));
      rw_lat.Record(b.ElapsedMicros());
    }
    bench::Row("read-only engine  | us: %s", ro_lat.Summary().c_str());
    bench::Row("read-write quorum | us: %s", rw_lat.Summary().c_str());
    bench::Row("\nshape check: read-only avg below read-write avg: %s",
               ro_lat.Average() < rw_lat.Average() ? "YES" : "NO");
  }

  bench::Header("E2 ablation: index formats (binary vs interpolation search)",
                "\"new index formats\" is Voldemort future work (II.C); MD5 "
                "digests\nare uniform, so interpolation search needs "
                "O(log log n) probes");
  {
    Random rng(11);
    bench::Row("%9s | %22s | %26s", "keys", "binary search ns/lookup",
               "interpolation ns/lookup");
    for (int num_keys : {10'000, 100'000, 1'000'000}) {
      std::map<std::string, std::string> records;
      for (int i = 0; i < num_keys; ++i) {
        records["member:" + std::to_string(i)] = "v";
      }
      Cluster single = Cluster::Uniform({{0, net::MakeAddress(net::Tier::kVoldemort, 0), 0}}, 1);
      auto built = BulkBuild(records, single, 1);
      const ReadOnlyFiles& files = built.files_per_node.at(0);

      const int kLookups = 200'000;
      bench::Stopwatch binary_timer;
      for (int i = 0; i < kLookups; ++i) {
        ReadOnlySearch(files,
                       "member:" + std::to_string(rng.Uniform(num_keys)))
            .ok();
      }
      const double binary_ns = binary_timer.ElapsedMicros() * 1000 / kLookups;
      bench::Stopwatch interp_timer;
      for (int i = 0; i < kLookups; ++i) {
        ReadOnlyInterpolationSearch(
            files, "member:" + std::to_string(rng.Uniform(num_keys)))
            .ok();
      }
      const double interp_ns = interp_timer.ElapsedMicros() * 1000 / kLookups;
      bench::Row("%9d | %22.0f | %20.0f (%.2fx)", num_keys, binary_ns,
                 interp_ns, binary_ns / interp_ns);
    }
    bench::Row("\nshape check: interpolation's advantage grows with index "
               "size\n(probe count log2(n) vs log2(log2(n)) on uniform "
               "digests).");
  }
  return 0;
}
