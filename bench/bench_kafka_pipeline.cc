// E20 — end-to-end latency of the mirrored analytics pipeline.
//
// Paper (V.D): "Without too much tuning, the end-to-end latency for the
// complete pipeline is about 10 seconds on average, good enough for our
// requirements." The pipeline: frontend producers (batching) -> live-DC
// brokers (flush policy) -> embedded-consumer mirror -> offline-DC brokers
// -> data-load consumers.
//
// Time is simulated (ManualClock): each stage runs on the cadence a
// production deployment would use, so the measured latency reflects the
// batching/flush/poll delays that dominate the real pipeline, not our
// simulator's CPU speed.

#include <map>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/mirror.h"
#include "kafka/producer.h"
#include "net/network.h"
#include "zk/zookeeper.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::kafka;

int main() {
  bench::Header("E20: end-to-end mirrored pipeline latency (simulated time)",
                "~10 s average end-to-end (paper V.D)");
  bench::Row("%18s | %14s | %12s | %12s", "stage cadence", "producer batch",
             "avg e2e s", "p95 e2e s");

  struct Cadence {
    const char* label;
    int64_t flush_ms;        // broker flush interval
    int64_t mirror_poll_ms;  // embedded consumer poll period
    int64_t load_poll_ms;    // offline load job poll period
    int batch;
  };
  const Cadence cadences[] = {
      {"aggressive (1s)", 1000, 1000, 1000, 50},
      {"production (2-4s)", 2000, 3000, 4000, 100},
      {"relaxed (5-10s)", 5000, 5000, 10000, 500},
  };

  for (const Cadence& cadence : cadences) {
    ManualClock clock;
    zk::ZooKeeper zookeeper;
    net::Network network;
    BrokerOptions live_options;
    live_options.log.flush_interval_messages = 1 << 20;  // time-driven flush
    live_options.log.flush_interval_ms = cadence.flush_ms;
    Broker live(0, &zookeeper, &network, &clock, live_options);
    LIDI_MUST_OK(live.CreateTopic("events", 4));
    BrokerOptions offline_options = live_options;
    offline_options.zk_root = "/kafka-offline";
    Broker offline(100, &zookeeper, &network, &clock, offline_options);
    LIDI_MUST_OK(offline.CreateTopic("events", 4));

    ProducerOptions producer_options;
    producer_options.batch_size = cadence.batch;
    Producer frontend("frontend", &zookeeper, &network, producer_options);
    MirrorMaker mirror("mirror", "events", &zookeeper, &network, "/kafka",
                       "/kafka-offline");
    ConsumerOptions load_options;
    load_options.zk_root = "/kafka-offline";
    Consumer load("load", "etl", &zookeeper, &network, load_options);
    LIDI_MUST_OK(load.Subscribe("events"));

    // Drive 10 simulated minutes: ~100 events/s in 100 ms ticks; each stage
    // acts on its cadence. Event payload carries its production timestamp.
    bench::Samples latencies;
    const int64_t kTickMs = 100;
    for (int64_t t = 0; t < 10 * 60 * 1000; t += kTickMs) {
      clock.AdvanceMillis(kTickMs);
      for (int i = 0; i < 10; ++i) {
        LIDI_MUST_OK(frontend.Send("events", std::to_string(clock.NowMillis())));
      }
      // Appends notice time-based flushes; nudge brokers via empty produce.
      if (t % cadence.flush_ms == 0) {
        live.FlushAll();
        offline.FlushAll();
      }
      if (t % cadence.mirror_poll_ms == 0) {
        LIDI_MUST_OK(frontend.Flush());  // producers ship pending batches on a timer too
        // The embedded consumer drains its backlog each wake-up.
        while (mirror.PumpOnce().value() > 0) {
        }
      }
      if (t % cadence.load_poll_ms == 0) {
        for (int drain = 0; drain < 16; ++drain) {
          auto messages = load.Poll("events");
          if (!messages.ok() || messages.value().empty()) break;
          for (const Message& m : messages.value()) {
            const int64_t produced_at = std::atoll(m.payload.c_str());
            latencies.Record(
                static_cast<double>(clock.NowMillis() - produced_at) / 1000.0);
          }
        }
      }
    }
    bench::Row("%18s | %14d | %12.1f | %12.1f", cadence.label, cadence.batch,
               latencies.Average(), latencies.Percentile(95));
  }
  bench::Row("\nshape check: end-to-end latency is the sum of the stage\n"
             "cadences (batching + flush + mirror + load polling) — seconds,\n"
             "not milliseconds, matching the paper's ~10 s pipeline.");
  return 0;
}
