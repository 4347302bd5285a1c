// E4 — the Company Follow workload: read-write stores with Zipfian-sized
// list values and server-side transforms.
//
// Paper (II.C): "Both the stores have a Zipfian distribution for their data
// size, but still manage to retrieve large values with an average latency of
// 4 ms." The stores map member -> companies followed and company -> members
// following; popular companies accumulate very long follower lists.

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

int main() {
  bench::Header("E4: Company Follow stores (Zipfian value sizes)",
                "large Zipfian values retrieved at ~4 ms average (II.C)");

  net::Network network;
  std::vector<Node> cluster_nodes;
  for (int i = 0; i < 4; ++i) cluster_nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
  auto metadata =
      std::make_shared<ClusterMetadata>(Cluster::Uniform(cluster_nodes, 16));
  std::vector<std::unique_ptr<VoldemortServer>> servers;
  for (int i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<VoldemortServer>(i, metadata, &network));
    LIDI_MUST_OK(servers.back()->AddStore("member-follows"));
    LIDI_MUST_OK(servers.back()->AddStore("company-followers"));
  }
  StoreDefinition def{"company-followers", 3, 2, 2};
  StoreClient followers("cf", def, metadata, &network, SystemClock::Default());

  // Build follower lists with Zipfian popularity: company rank 0 is followed
  // by everyone, the tail barely at all.
  const int kCompanies = 500;
  const int kFollows = 20'000;
  workload::KeyMixOptions mix_options;
  mix_options.num_keys = kCompanies;
  mix_options.theta = 0.99;
  mix_options.seed = 3;
  mix_options.prefix = "company:";
  workload::KeyMix mix(mix_options);
  bench::Samples append_lat;
  std::string empty;
  EncodeStringList({}, &empty);
  for (int c = 0; c < kCompanies; ++c) {
    LIDI_MUST_OK(followers.PutValue(mix.KeyAt(static_cast<uint64_t>(c)), empty));
  }
  for (int i = 0; i < kFollows; ++i) {
    const std::string key = mix.NextKey();
    auto current = followers.Get(key);
    if (!current.ok()) continue;
    Transform append;
    append.type = Transform::Type::kAppend;
    append.item = "member:" + std::to_string(i);
    bench::Stopwatch op;
    LIDI_MUST_OK(followers.Put(key, current.value()[0].version, append));
    append_lat.Record(op.ElapsedMicros());
  }
  bench::Row("follow (transformed append) us: %s", append_lat.Summary().c_str());

  // Retrieval latency across the size distribution.
  bench::Samples get_lat, head_lat, tail_lat;
  size_t max_list = 0;
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t rank = mix.NextRank();
    const std::string key = mix.KeyAt(rank);
    bench::Stopwatch op;
    auto value = followers.Get(key);
    const double us = op.ElapsedMicros();
    get_lat.Record(us);
    (rank < 10 ? head_lat : tail_lat).Record(us);
    if (value.ok()) {
      auto list = DecodeStringList(value.value()[0].value);
      if (list.ok()) max_list = std::max(max_list, list.value().size());
    }
  }
  bench::Row("get overall  us: %s", get_lat.Summary().c_str());
  bench::Row("get hot-10   us: %s", head_lat.Summary().c_str());
  bench::Row("get tail     us: %s", tail_lat.Summary().c_str());
  bench::Row("largest follower list: %zu members", max_list);

  // The sub-list transform's win is bandwidth: the server ships only the
  // requested slice instead of the full follower list (Figure II.2, method
  // 3: "saving a client round trip and network bandwidth").
  bench::Samples sublist_lat;
  int64_t full_bytes = 0, sublist_bytes = 0;
  const int kHotReads = 2000;
  for (int i = 0; i < kHotReads; ++i) {
    auto full = followers.Get("company:0");
    if (full.ok()) full_bytes += static_cast<int64_t>(full.value()[0].value.size());
    Transform sublist;
    sublist.type = Transform::Type::kSublist;
    sublist.offset = 0;
    sublist.count = 10;
    bench::Stopwatch op;
    auto sliced = followers.Get("company:0", sublist);
    sublist_lat.Record(op.ElapsedMicros());
    if (sliced.ok()) {
      sublist_bytes += static_cast<int64_t>(sliced.value()[0].value.size());
    }
  }
  bench::Row("hot-key full get ships   %8lld bytes/read",
             static_cast<long long>(full_bytes / kHotReads));
  bench::Row("server-side sub-list(10) %8lld bytes/read (%.0fx less wire "
             "traffic), us: %s",
             static_cast<long long>(sublist_bytes / kHotReads),
             static_cast<double>(full_bytes) /
                 static_cast<double>(std::max<int64_t>(1, sublist_bytes)),
             sublist_lat.Summary().c_str());
  bench::Row("\nshape check: hot keys (huge lists) cost more than the tail;\n"
             "the server-side sub-list transform cuts the shipped bytes by\n"
             "orders of magnitude — the bandwidth saving of Figure II.2.");
  return 0;
}
