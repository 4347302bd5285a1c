// E15 — Kafka producer/consumer throughput and the batching effect, plus
// the broker-side-index ablation.
//
// Paper (V.B): "the producer can submit a set of messages in a single send
// request" and "each pull request from a consumer also retrieves multiple
// messages up to a certain size, typically hundreds of kilobytes". Also:
// offset addressing "avoids the overhead of maintaining auxiliary index
// structures that map the message ids to the actual message locations".

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "io/file.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "zk/zookeeper.h"

#include "common/require.h"

using namespace lidi;
using namespace lidi::kafka;

namespace {

// --transport=sim|tcp (or LIDI_TRANSPORT=sim|tcp): the same producer/
// broker/consumer code runs on the simulated in-process transport or over
// real epoll/TCP localhost sockets — the tentpole claim of the pluggable
// transport runtime. Default: sim (deterministic, no kernel involvement).
std::string TransportMode(int argc, char** argv) {
  std::string mode = "sim";
  if (const char* env = std::getenv("LIDI_TRANSPORT")) mode = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--transport=", 12) == 0) mode = argv[i] + 12;
  }
  if (mode != "sim" && mode != "tcp") {
    std::fprintf(stderr, "unknown --transport=%s (want sim|tcp)\n",
                 mode.c_str());
    std::exit(2);
  }
  return mode;
}

std::unique_ptr<net::Transport> MakeTransport(const std::string& mode) {
  if (mode == "tcp") return std::make_unique<net::TcpTransport>();
  return std::make_unique<net::Network>();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string transport_mode = TransportMode(argc, argv);
  // Sync RPCs over real sockets cost microseconds, not nanoseconds; scale
  // the message count so the tcp rows finish in comparable wall time.
  const bool over_tcp = transport_mode == "tcp";
  // Transport-comparison rows go to their own file so sim-only kafka rows
  // keep their historical home.
  const char* json_path = over_tcp ? "BENCH_net.json" : "BENCH_kafka.json";

  bench::Header(("E15: throughput vs batch size (transport=" + transport_mode +
                 ")")
                    .c_str(),
                "batched sets amortize per-request cost (paper V.A/V.B)");
  bench::Row("%8s | %10s | %14s | %14s", "msg B", "batch", "produce msg/s",
             "consume msg/s");

  for (int msg_bytes : {200, 1000}) {
    for (int batch : {1, 10, 50, 200}) {
      ManualClock clock;
      zk::ZooKeeper zookeeper;
      std::unique_ptr<net::Transport> transport = MakeTransport(transport_mode);
      net::Transport* network = transport.get();
      BrokerOptions broker_options;
      broker_options.log.flush_interval_messages = 1000;
      Broker broker(0, &zookeeper, network, &clock, broker_options);
      LIDI_MUST_OK(broker.CreateTopic("t", 4));

      ProducerOptions producer_options;
      producer_options.batch_size = batch;
      Producer producer("p", &zookeeper, network, producer_options);
      Random rng(1);
      const std::string payload = rng.Bytes(msg_bytes);

      const int kMessages = over_tcp ? 20'000 : 60'000;
      bench::Stopwatch produce_timer;
      for (int i = 0; i < kMessages; ++i) LIDI_MUST_OK(producer.Send("t", payload));
      LIDI_MUST_OK(producer.Flush());
      const double produce_rate = kMessages / produce_timer.ElapsedSeconds();
      broker.FlushAll();

      ConsumerOptions consumer_options;
      consumer_options.max_fetch_bytes = 300 << 10;
      Consumer consumer("c", "g", &zookeeper, network, consumer_options);
      LIDI_MUST_OK(consumer.Subscribe("t"));
      bench::Stopwatch consume_timer;
      int64_t consumed = 0;
      while (consumed < kMessages) {
        auto messages = consumer.Poll("t");
        if (!messages.ok()) return 1;
        if (messages.value().empty()) break;
        consumed += static_cast<int64_t>(messages.value().size());
      }
      const double consume_seconds = consume_timer.ElapsedSeconds();
      const double consume_rate =
          static_cast<double>(consumed) / consume_seconds;
      const double fetch_mbps = static_cast<double>(consumed) * msg_bytes /
                                consume_seconds / (1 << 20);
      bench::Row("%8d | %10d | %14.0f | %14.0f", msg_bytes, batch,
                 produce_rate, consume_rate);
      bench::JsonRowAt(json_path, "E15", {{"transport", transport_mode}},
                       {{"msg_bytes", msg_bytes},
                        {"batch", batch},
                        {"produce_msgs_per_s", produce_rate},
                        {"consume_msgs_per_s", consume_rate},
                        {"fetch_mbps", fetch_mbps}});
    }
  }
  bench::Row("\nshape check: throughput rises steeply with batch size — the\n"
             "paper's motivation for message-set publishes and bulk pulls.");

  if (over_tcp) {
    bench::Row("\n(transport=tcp: the remaining sections measure the log "
               "layer,\nwhich is transport-independent — run with "
               "--transport=sim)");
    return 0;
  }

  bench::Header(
      "E15 ablation: offset addressing vs per-message id index",
      "no auxiliary id->location index needed with logical offsets (V.B)");
  {
    ManualClock clock;
    const int kMessages = 300'000;
    Random rng(2);
    const std::string payload = rng.Bytes(200);

    // Offset addressing: plain appends.
    LogOptions log_options;
    log_options.flush_interval_messages = 1 << 20;
    PartitionLog plain(log_options, &clock);
    MessageSetBuilder builder;
    builder.Add(payload);
    const std::string set = builder.Build();
    bench::Stopwatch plain_timer;
    for (int i = 0; i < kMessages; ++i) plain.Append(set, 1);
    const double plain_s = plain_timer.ElapsedSeconds();

    // Ablation: additionally maintain the id -> offset B-tree a traditional
    // message id scheme would need.
    PartitionLog indexed(log_options, &clock);
    std::map<int64_t, int64_t> id_index;
    bench::Stopwatch indexed_timer;
    for (int i = 0; i < kMessages; ++i) {
      id_index[i] = indexed.Append(set, 1);
    }
    const double indexed_s = indexed_timer.ElapsedSeconds();

    bench::Row("offset addressing : %9.0f appends/s", kMessages / plain_s);
    bench::Row("with id index     : %9.0f appends/s (index holds %zu entries)",
               kMessages / indexed_s, id_index.size());
    bench::Row("index overhead    : %.1f%% slower, plus O(n) memory",
               100.0 * (indexed_s - plain_s) / plain_s);
  }

  bench::Header(
      "E15b: flush durability vs throughput",
      "paper V.B leans on the page cache; fdatasync buys crash-survival at a "
      "per-flush cost (sync = never | interval | always), and group commit "
      "amortizes the always-sync across concurrent producers");
  bench::Row("%10s | %14s | %6s | %14s | %12s", "sync", "mode", "depth",
             "produce msg/s", "durable end");
  {
    ManualClock clock;
    Random rng(3);
    const std::string payload = rng.Bytes(200);
    MessageSetBuilder builder;
    builder.Add(payload);
    const std::string set = builder.Build();
    const int kMessages = 2'000;

    const auto base = std::filesystem::temp_directory_path() /
                      ("lidi_bench_sync_" +
                       std::to_string(std::chrono::steady_clock::now()
                                          .time_since_epoch()
                                          .count()));
    double interval_rate = 0;
    double always_direct_rate = 0;
    for (io::SyncPolicy policy : {io::SyncPolicy::kNever,
                                  io::SyncPolicy::kInterval,
                                  io::SyncPolicy::kAlways}) {
      LogOptions log_options;
      log_options.data_dir =
          (base / io::SyncPolicyName(policy)).string();
      log_options.flush_interval_messages = 1;  // every append hits the fs
      log_options.sync = policy;
      log_options.sync_interval_bytes = 64 << 10;
      PartitionLog log(log_options, &clock);

      bench::Stopwatch timer;
      for (int i = 0; i < kMessages; ++i) log.Append(set, 1);
      const double seconds = timer.ElapsedSeconds();
      const double rate = kMessages / seconds;
      if (policy == io::SyncPolicy::kInterval) interval_rate = rate;
      if (policy == io::SyncPolicy::kAlways) always_direct_rate = rate;

      bench::Row("%10s | %14s | %6d | %14.0f | %12lld",
                 io::SyncPolicyName(policy), "direct", 1, rate,
                 static_cast<long long>(log.durable_end_offset()));
      bench::JsonRow("E15b",
                     {{"sync", io::SyncPolicyName(policy)},
                      {"mode", "direct"}},
                     {{"msg_bytes", 200},
                      {"batch_depth", 1},
                      {"produce_msgs_per_s", rate},
                      {"durable_end_offset",
                       static_cast<double>(log.durable_end_offset())}});
    }

    // Group commit: `depth` producer threads each append durably; the first
    // to need a sync leads one covering fdatasync for the whole batch. At
    // depth 1 this measures the group path's overhead (same one-sync-per-
    // append work, plus the committer handoff); at depth 64 the sync cost
    // divides by the batch.
    double group64_rate = 0;
    for (int depth : {1, 8, 64}) {
      LogOptions log_options;
      log_options.data_dir =
          (base / ("group_" + std::to_string(depth))).string();
      log_options.flush_interval_messages = 1;
      log_options.sync = io::SyncPolicy::kAlways;
      log_options.group_commit = true;
      PartitionLog log(log_options, &clock);

      const int per_thread = kMessages / depth;
      bench::Stopwatch timer;
      std::vector<std::thread> producers;
      producers.reserve(static_cast<size_t>(depth));
      for (int t = 0; t < depth; ++t) {
        producers.emplace_back([&log, &set, per_thread] {
          for (int i = 0; i < per_thread; ++i) {
            auto acked = log.AppendDurable(set, 1);
            if (!acked.ok()) std::abort();  // bench contract: all acks land
          }
        });
      }
      for (auto& t : producers) t.join();
      const double seconds = timer.ElapsedSeconds();
      const int sent = per_thread * depth;
      const double rate = sent / seconds;
      if (depth == 64) group64_rate = rate;

      bench::Row("%10s | %14s | %6d | %14.0f | %12lld", "always",
                 "group_commit", depth, rate,
                 static_cast<long long>(log.durable_end_offset()));
      bench::JsonRow("E15b",
                     {{"sync", "always"}, {"mode", "group_commit"}},
                     {{"msg_bytes", 200},
                      {"batch_depth", depth},
                      {"produce_msgs_per_s", rate},
                      {"durable_end_offset",
                       static_cast<double>(log.durable_end_offset())}});
    }
    if (interval_rate > 0 && group64_rate > 0) {
      bench::Row("\ncliff: always/interval = %.0fx direct, %.1fx with group "
                 "commit at depth 64",
                 interval_rate / always_direct_rate,
                 interval_rate / group64_rate);
    }
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
  }
  bench::Row("\nshape check: never ~ page-cache speed, always pays one\n"
             "fdatasync per flush, interval sits between. Group commit\n"
             "shares one covering fdatasync across concurrent producers,\n"
             "closing most of the always-vs-interval cliff at batch depth.");
  return 0;
}
