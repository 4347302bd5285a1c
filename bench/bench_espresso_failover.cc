// E13 — Espresso failover: timeline-consistent replication, slave
// promotion, zero acknowledged-write loss.
//
// Paper (IV.B): "When a master partition fails, a slave partition is
// selected to take over. The slave partition first consumes all outstanding
// changes to the partition from the Databus relay, and then becomes a
// master partition." Durability: the paper writes "each change ... to two
// places before being committed — the local MySQL binlog and the Databus
// relay". Here the relay is the one log (DESIGN.md §1): a change is acked
// once it is in the relay, which outlives the master; a storage node's
// in-memory document table is not a durable copy.

#include <set>

#include "bench_util.h"
#include "common/random.h"
#include "espresso_fixture.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::bench;

int main() {
  bench::Header("E13: master failover with zero acknowledged-write loss",
                "slave drains the relay backlog, then masters (IV.B)");
  bench::Row("%6s | %10s | %12s | %12s | %10s | %s", "run", "acked docs",
             "failover us", "transitions", "lost docs", "writes after");

  for (int run = 0; run < 5; ++run) {
    EspressoFixture fx(3, 8, 2);
    Random rng(run + 1);

    // Acknowledge a batch of writes. Slaves are NOT caught up on purpose:
    // the relay alone carries the outstanding changes.
    std::vector<std::string> acked;
    for (int i = 0; i < 500; ++i) {
      const std::string uri =
          "/db/docs/c" + std::to_string(rng.Uniform(100)) + "/d" +
          std::to_string(i);
      auto doc = fx.MakeDoc("t", "b", i);
      if (fx.router->PutDocument(uri, *doc).ok()) acked.push_back(uri);
    }

    // Kill one node that masters at least one partition.
    const std::string victim = "esn-0";
    fx.KillNode(victim);
    bench::Stopwatch failover;
    const int transitions = fx.controller->RebalanceToConvergence();
    const double failover_us = failover.ElapsedMicros();

    int lost = 0;
    for (const std::string& uri : acked) {
      if (!fx.router->GetDocument(uri).ok()) ++lost;
    }
    // Writes must keep working after the failover.
    auto doc = fx.MakeDoc("after", "failover", 0);
    const bool writes_ok =
        fx.router->PutDocument("/db/docs/after/failover", *doc).ok();

    bench::Row("%6d | %10zu | %12.0f | %12d | %10d | %s", run, acked.size(),
               failover_us, transitions, lost, writes_ok ? "OK" : "FAIL");
  }
  bench::Row("\nshape check: lost docs is always 0 — acknowledged writes\n"
             "survive master death because the relay holds them (semi-sync).");

  bench::Header("E13 follow-on: timeline consistency on slaves",
                "changes apply on slaves in master commit order (IV.B)");
  {
    EspressoFixture fx(3, 4, 2);
    // Interleaved writes to one hot document.
    for (int i = 0; i < 200; ++i) {
      auto doc = fx.MakeDoc("v" + std::to_string(i), "b", i);
      LIDI_MUST_OK(fx.router->PutDocument("/db/docs/hot/doc", *doc));
    }
    for (auto& node : fx.nodes) node->CatchUpAll();
    // Every replica of the partition must hold the LAST version.
    const auto db_schema = fx.registry.GetDatabase("db").value();
    const int partition = espresso::PartitionOf(db_schema, "hot");
    int replicas = 0, correct = 0;
    for (auto& node : fx.nodes) {
      auto record = node->LocalGet("db", "docs", "hot/doc");
      if (!record.ok()) continue;
      ++replicas;
      auto schema = fx.registry.GetDocumentSchema("db", "docs", 1).value();
      Slice payload(record.value().payload);
      auto datum = avro::Decode(*schema, &payload);
      if (datum.ok() &&
          datum.value()->GetField("rank")->int_value() == 199) {
        ++correct;
      }
    }
    bench::Row("replicas of partition %d holding the final version: %d/%d",
               partition, correct, replicas);
  }
  return 0;
}
