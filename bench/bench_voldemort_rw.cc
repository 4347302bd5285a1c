// E1 — Voldemort read-write cluster under the production mix.
//
// Paper (II.C): "Our largest read-write cluster has about 60% reads and 40%
// writes. This cluster serves around 10K queries per second at peak with
// average latency of 3 ms."
//
// We drive a 4-node N=3/R=2/W=2 cluster with a Zipfian-keyed 60/40 mix and
// report throughput and the latency distribution, plus an (N, R, W) sweep
// showing the quorum-size cost the store configuration trades against.

#include <memory>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "net/address.h"
#include "net/network.h"
#include "voldemort/client.h"
#include "voldemort/server.h"
#include "workload/key_mix.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::voldemort;

namespace {

struct ClusterFixture {
  ClusterFixture(int num_nodes, int partitions) {
    std::vector<Node> nodes;
    for (int i = 0; i < num_nodes; ++i) {
      nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    }
    metadata = std::make_shared<ClusterMetadata>(
        Cluster::Uniform(nodes, partitions));
    for (int i = 0; i < num_nodes; ++i) {
      servers.push_back(
          std::make_unique<VoldemortServer>(i, metadata, &network));
      LIDI_MUST_OK(servers.back()->AddStore("bench"));
    }
  }

  net::Network network;
  std::shared_ptr<ClusterMetadata> metadata;
  std::vector<std::unique_ptr<VoldemortServer>> servers;
};

void RunMix(ClusterFixture& fx, int n, int r, int w, int num_keys, int ops,
            double read_fraction) {
  StoreDefinition def;
  def.name = "bench";
  def.replication_factor = n;
  def.required_reads = r;
  def.required_writes = w;
  StoreClient client("bench-client", def, fx.metadata, &fx.network,
                     SystemClock::Default());

  Random rng(11);
  workload::KeyMixOptions mix_options;
  mix_options.num_keys = static_cast<uint64_t>(num_keys);
  mix_options.theta = 0.9;
  mix_options.seed = 17;
  workload::KeyMix mix(mix_options);
  // Preload.
  for (int i = 0; i < num_keys; ++i) {
    LIDI_MUST_OK(client.PutValue(mix.KeyAt(static_cast<uint64_t>(i)), rng.Bytes(256)));
  }

  bench::Samples read_lat, write_lat;
  bench::Stopwatch total;
  for (int i = 0; i < ops; ++i) {
    const std::string key = mix.NextKey();
    bench::Stopwatch op;
    if (rng.NextDouble() < read_fraction) {
      LIDI_MUST_OK(client.Get(key));
      read_lat.Record(op.ElapsedMicros());
    } else {
      auto versions = client.Get(key);
      if (versions.ok()) {
        LIDI_MUST_OK(client.Put(key, Versioned{versions.value()[0].version,
                                  rng.Bytes(256)}));
      }
      write_lat.Record(op.ElapsedMicros());
    }
  }
  const double seconds = total.ElapsedSeconds();
  bench::Row("N=%d R=%d W=%d | %7.0f ops/s | read us: %s", n, r, w,
             ops / seconds, read_lat.Summary().c_str());
  bench::Row("                |              | write us: %s",
             write_lat.Summary().c_str());
}

}  // namespace

int main() {
  bench::Header("E1: Voldemort read-write cluster, 60/40 mix",
                "~10K qps at peak, ~3 ms average latency (paper II.C)");
  {
    ClusterFixture fx(4, 16);
    RunMix(fx, 3, 2, 2, 5000, 20000, 0.6);
  }

  bench::Header("E1 sweep: quorum configuration (N, R, W)",
                "per-store configs trade latency vs durability (paper II.B)");
  const int configs[][3] = {{1, 1, 1}, {2, 1, 1}, {3, 1, 1},
                            {3, 2, 2}, {3, 3, 3}};
  for (const auto& [n, r, w] : configs) {
    ClusterFixture fx(4, 16);
    RunMix(fx, n, r, w, 2000, 8000, 0.6);
  }
  bench::Row("\nshape check: latency grows with R+W; weakest quorum is fastest.");
  return 0;
}
