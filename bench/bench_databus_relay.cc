// E8 — Databus relay serving latency and buffering, plus the chained-relay
// ablation.
//
// Paper (III.C): the relay's in-memory circular buffer provides a "default
// serving path with very low latency (<1 ms)", "efficient buffering of tens
// of GB of data with hundreds of millions of Databus events", and "index
// structures to efficiently serve to Databus clients events from a given
// sequence number S". Relays can also chain ("connected ... to other relays
// to provide replicated availability").

#include <memory>

#include "bench_util.h"
#include "common/random.h"
#include "databus/relay.h"
#include "net/network.h"
#include "sqlstore/database.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::databus;

int main() {
  bench::Header("E8: relay serve latency from a given SCN",
                "default serving path <1 ms (paper III.C)");
  bench::Row("%9s | %10s | %14s | %s", "events", "payload B",
             "read batch", "serve latency us (100-event reads)");

  for (const auto& [num_events, payload_bytes] :
       std::vector<std::pair<int, int>>{{50'000, 100},
                                        {200'000, 100},
                                        {200'000, 1000}}) {
    net::Network network;
    sqlstore::Database db("source");
    LIDI_MUST_OK(db.CreateTable("t"));
    Random rng(3);
    // Commit in multi-row transactions to stress the envelope path.
    for (int i = 0; i < num_events; i += 5) {
      auto txn = db.Begin();
      for (int j = 0; j < 5; ++j) {
        txn.Put("t", "k" + std::to_string(i + j),
                {{"v", rng.Bytes(payload_bytes)}});
      }
      LIDI_MUST_OK(txn.Commit());
    }
    Relay relay("relay", &db, &network,
                RelayOptions{.buffer_capacity_events = 1 << 21,
                             .poll_batch_transactions = 1 << 20});
    LIDI_MUST_OK(relay.PollOnce());

    bench::Samples lat;
    for (int i = 0; i < 20'000; ++i) {
      const int64_t since = static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(num_events / 5 - 25)));
      bench::Stopwatch op;
      auto events = relay.ReadEvents(since, 100, Filter{});
      lat.Record(op.ElapsedMicros());
      if (!events.ok()) return 1;
    }
    bench::Row("%9d | %10d | %14d | %s",
               static_cast<int>(relay.buffered_events()), payload_bytes, 100,
               lat.Summary().c_str());
  }
  bench::Row("\nshape check: avg well under 1000 us and flat in buffer size\n"
             "(binary-searched SCN index).");

  bench::Header("E8 ablation: direct relay vs chained relay",
                "chained relays add replicated availability at one extra hop");
  {
    net::Network network;
    sqlstore::Database db("source");
    LIDI_MUST_OK(db.CreateTable("t"));
    for (int i = 0; i < 50'000; ++i) LIDI_MUST_OK(db.Put("t", "k" + std::to_string(i), {}));
    Relay direct("relay-direct", &db, &network);
    LIDI_MUST_OK(direct.PollOnce());
    Relay chained("relay-chained", net::Address("relay-direct"), &network);
    LIDI_MUST_OK(chained.PollOnce());

    Random rng(4);
    for (auto* relay : {&direct, &chained}) {
      bench::Samples lat;
      for (int i = 0; i < 20'000; ++i) {
        const int64_t since =
            static_cast<int64_t>(rng.Uniform(50'000 - 200));
        bench::Stopwatch op;
        LIDI_MUST_OK(relay->ReadEvents(since, 100, Filter{}));
        lat.Record(op.ElapsedMicros());
      }
      bench::Row("%-14s | us: %s",
                 relay == &direct ? "direct" : "chained", lat.Summary().c_str());
    }
    bench::Row("chained relay buffered %lld of %lld events (full replica)",
               static_cast<long long>(chained.buffered_events()),
               static_cast<long long>(direct.buffered_events()));
  }
  return 0;
}
