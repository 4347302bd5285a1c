// E3 — the DHT design ablation: full-topology O(1) routing vs Chord.
//
// Paper (II.A): "This lets us store the complete topology metadata on every
// node instead of partial 'finger tables' as in Chord, thereby decreasing
// lookups from O(log N) to O(1)."
//
// For rings of 8..1024 nodes we measure Voldemort's lookup hop count (always
// 1 routing step — the client resolves the owner locally) and routing time,
// against the Chord baseline's greedy finger-table hop counts.

#include <cmath>

#include <benchmark/benchmark.h>

#include "net/address.h"
#include "bench_util.h"
#include "voldemort/cluster.h"
#include "voldemort/routing.h"
#include "voldemort/server.h"

using namespace lidi;
using namespace lidi::voldemort;

int main() {
  bench::Header("E3: O(1) full-topology routing vs Chord O(log N)",
                "Voldemort lookups O(1); Chord O(log N) (paper II.A)");
  bench::Row("%6s | %14s | %18s | %12s | %10s", "nodes", "voldemort hops",
             "voldemort ns/route", "chord hops", "log2(N)");

  for (int num_nodes : {8, 16, 64, 256, 1024}) {
    std::vector<Node> nodes;
    for (int i = 0; i < num_nodes; ++i) {
      nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    }
    Cluster cluster = Cluster::Uniform(std::move(nodes), num_nodes * 4);
    auto routing = NewConsistentRoutingStrategy(&cluster, 3);
    ChordBaseline chord(num_nodes);

    const int kLookups = 2000;
    bench::Stopwatch timer;
    int sink = 0;
    for (int i = 0; i < kLookups; ++i) {
      sink += routing->RouteRequest("key-" + std::to_string(i))[0];
    }
    benchmark::DoNotOptimize(sink);
    const double voldemort_ns = timer.ElapsedMicros() * 1000.0 / kLookups;

    bench::Samples chord_hops;
    for (int i = 0; i < kLookups; ++i) {
      chord_hops.Record(
          chord.LookupHops("key-" + std::to_string(i), i % num_nodes));
    }
    bench::Row("%6d | %14d | %18.0f | %12.2f | %10.1f", num_nodes, 1,
               voldemort_ns, chord_hops.Average(),
               std::log2(static_cast<double>(num_nodes)));
  }
  bench::Row(
      "\nshape check: Voldemort hop count is constant while Chord's average\n"
      "hops grow ~log2(N) — the paper's motivation for full topology "
      "metadata.");
  return 0;
}
