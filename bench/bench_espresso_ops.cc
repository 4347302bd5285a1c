// E12 — Espresso data-plane operations: routed document reads/writes,
// secondary-index queries, multi-table transactions.
//
// Paper (IV.A/IV.B): requests are routed by hashing the resource_id to a
// partition and forwarding to the partition master; queries "first consult a
// local secondary index then return the matching documents from the local
// data store".

#include "bench_util.h"
#include "common/random.h"
#include "espresso_fixture.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::bench;

int main() {
  bench::Header("E12: Espresso document operations",
                "schema-routed writes, master reads, index queries (IV.A/B)");

  EspressoFixture fx(3, 8, 2);
  Random rng(21);
  const int kDocs = 4000;
  const int kCollections = 200;

  bench::Samples put_lat;
  for (int i = 0; i < kDocs; ++i) {
    const std::string uri = "/db/docs/col" +
                            std::to_string(i % kCollections) + "/d" +
                            std::to_string(i);
    auto doc = fx.MakeDoc("title " + std::to_string(i),
                          "body text " + rng.Bytes(60) +
                              (i % 7 == 0 ? " rare phrase here" : ""),
                          static_cast<int>(rng.Uniform(100)));
    bench::Stopwatch op;
    auto etag = fx.router->PutDocument(uri, *doc);
    put_lat.Record(op.ElapsedMicros());
    if (!etag.ok()) {
      bench::Row("PUT failed: %s", etag.status().ToString().c_str());
      return 1;
    }
  }
  bench::Row("PUT    us: %s", put_lat.Summary().c_str());

  bench::Samples get_lat;
  for (int i = 0; i < 20'000; ++i) {
    const int d = static_cast<int>(rng.Uniform(kDocs));
    const std::string uri = "/db/docs/col" + std::to_string(d % kCollections) +
                            "/d" + std::to_string(d);
    bench::Stopwatch op;
    auto doc = fx.router->GetDocument(uri);
    get_lat.Record(op.ElapsedMicros());
    if (!doc.ok()) {
      bench::Row("GET failed: %s", doc.status().ToString().c_str());
      return 1;
    }
  }
  bench::Row("GET    us: %s", get_lat.Summary().c_str());

  bench::Samples query_lat;
  int64_t hits = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string uri = "/db/docs/col" +
                            std::to_string(rng.Uniform(kCollections)) +
                            "?query=body:%22rare+phrase%22";
    bench::Stopwatch op;
    auto result = fx.router->Query(uri);
    query_lat.Record(op.ElapsedMicros());
    if (result.ok()) hits += static_cast<int64_t>(result.value().size());
  }
  bench::Row("QUERY  us: %s (total hits %lld)", query_lat.Summary().c_str(),
             static_cast<long long>(hits));

  bench::Samples txn_lat;
  for (int i = 0; i < 2000; ++i) {
    const std::string resource = "col" + std::to_string(rng.Uniform(kCollections));
    auto a = fx.MakeDoc("txn-a", "x", 1);
    auto b = fx.MakeDoc("txn-b", "y", 2);
    std::vector<espresso::Router::TxnUpdate> updates;
    updates.push_back({"docs", resource + "/txn-a", a.get()});
    updates.push_back({"docs", resource + "/txn-b", b.get()});
    bench::Stopwatch op;
    LIDI_MUST_OK(fx.router->PostTransaction("db", resource, updates));
    txn_lat.Record(op.ElapsedMicros());
  }
  bench::Row("TXN(2) us: %s", txn_lat.Summary().c_str());

  bench::Row("\nshape check: all four operations complete in microseconds on\n"
             "the simulated substrate; queries cost index-probe + record "
             "fetches.");
  return 0;
}
