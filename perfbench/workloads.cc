#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "avro/datum.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "databus/client.h"
#include "databus/relay.h"
#include "espresso/replication.h"
#include "espresso/router.h"
#include "espresso/schema.h"
#include "espresso/storage_node.h"
#include "helix/helix.h"
#include "io/file.h"
#include "kafka/broker.h"
#include "kafka/consumer.h"
#include "kafka/producer.h"
#include "net/address.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"
#include "sqlstore/database.h"
#include "storage/log_engine.h"
#include "voldemort/client.h"
#include "voldemort/cluster.h"
#include "voldemort/server.h"
#include "zk/zookeeper.h"

namespace lidi::perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MicrosSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e3; }

/// Set-up is all-or-nothing: a stack missing a store or topic would measure
/// nothing useful.
void MustOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "setup: %s: %s\n", what, s.ToString().c_str());
    std::exit(2);
  }
}

int32_t Name(const RunConfig& config, const char* name) {
  return config.recorder != nullptr ? config.recorder->Intern(name) : 0;
}

/// Seeded printable bytes for values, documents and messages: a pool made
/// once, sliced at seeded offsets.
class Filler {
 public:
  explicit Filler(uint64_t seed) : rng_(seed) {
    Random pool_rng(seed ^ 0x5eed);
    pool_ = pool_rng.Bytes(kPoolBytes);
  }

  std::string Take(size_t n) {
    return pool_.substr(rng_.Uniform(kPoolBytes - n), n);
  }

 private:
  static constexpr size_t kPoolBytes = 1 << 16;
  Random rng_;
  std::string pool_;
};

int64_t RegistryTotal(const obs::RegistrySnapshot& snapshot,
                      const std::string& name) {
  int64_t total = 0;
  for (const auto& instrument : snapshot.instruments) {
    if (instrument.name == name) total += instrument.value;
  }
  return total;
}

// --- serving ---------------------------------------------------------------

/// Paper §II.C member-facing traffic over TCP: Voldemort (N=3, R=2, W=2)
/// carries three of four operations, Espresso the fourth; 60% reads, Zipf
/// 0.99 over a preloaded key and document set.
class Serving final : public Workload {
 public:
  static constexpr int kVoldemortKeys = 1000;
  static constexpr int kEspressoDocs = 250;
  /// Profile-sized values: large enough that the preload and each run seal
  /// several of the storage engine's 1 MB segments, so compaction recurs.
  static constexpr size_t kValueBytes = 1024;
  static constexpr int64_t kDefaultOps = 4000;

  explicit Serving(const RunConfig& config)
      : config_(config),
        tcp_(net::TcpTransportOptions{}, &metrics_),
        filler_(config.seed),
        rng_(config.seed),
        voldemort_keys_(kVoldemortKeys, 0.99, config.seed + 1),
        espresso_docs_(kEspressoDocs, 0.99, config.seed + 2),
        gen_(Name(config, "workload.gen")),
        voldemort_get_(Name(config, "voldemort.get")),
        voldemort_put_(Name(config, "voldemort.put")),
        espresso_get_(Name(config, "espresso.get")),
        espresso_put_(Name(config, "espresso.put")) {
    metrics_.set_enabled(config.obs_enabled);
    if (config.recorder != nullptr) {
      tracing_ = std::make_unique<TracingTransport>(&tcp_, config.recorder);
    }
    transport_ = tracing_ != nullptr ? static_cast<net::Transport*>(tracing_.get())
                                     : &tcp_;
  }

  const char* transport() const override { return "tcp"; }
  const char* data_dir() const override { return "none (in-memory stores)"; }

  void Setup() override {
    std::vector<voldemort::Node> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back({i, net::MakeAddress(net::Tier::kVoldemort, i), 0});
    }
    metadata_ = std::make_shared<voldemort::ClusterMetadata>(
        voldemort::Cluster::Uniform(nodes, 16));
    voldemort::VoldemortServerOptions vopts;
    vopts.replication_factor = 3;
    for (int i = 0; i < 3; ++i) {
      servers_.push_back(std::make_unique<voldemort::VoldemortServer>(
          i, metadata_, transport_, vopts));
      MustOk(servers_.back()->AddStore("profiles"), "voldemort AddStore");
    }
    store_ = std::make_unique<voldemort::StoreClient>(
        "serving-client", voldemort::StoreDefinition{"profiles", 3, 2, 2},
        metadata_, transport_, SystemClock::Default());

    MustOk(registry_.CreateDatabase(
               {"db", espresso::DatabaseSchema::Partitioning::kHash, 4, 1}),
           "espresso CreateDatabase");
    MustOk(registry_.CreateTable("db", {"docs", 1}), "espresso CreateTable");
    MustOk(registry_
               .PostDocumentSchema("db", "docs", R"({
      "type":"record","name":"Doc","fields":[
        {"name":"title","type":"string","indexed":true},
        {"name":"body","type":"string"},
        {"name":"rank","type":"int","indexed":true}]})")
               .status(),
           "espresso PostDocumentSchema");
    controller_ = std::make_unique<helix::HelixController>("espresso", &zk_);
    MustOk(controller_->AddResource({"db", 4, 1}), "helix AddResource");
    for (int i = 0; i < 2; ++i) {
      auto node = std::make_unique<espresso::StorageNode>(
          "esn-" + std::to_string(i), &registry_, &espresso_relay_, transport_,
          SystemClock::Default());
      auto* raw = node.get();
      raw->SetMasterLookup([this](const std::string& db, int p) {
        return controller_->MasterOf(db, p);
      });
      MustOk(controller_
                 ->ConnectParticipant(raw->name(),
                                      [raw](const helix::Transition& t) {
                                        return raw->HandleTransition(t);
                                      })
                 .status(),
             "helix ConnectParticipant");
      nodes_.push_back(std::move(node));
    }
    controller_->RebalanceToConvergence();
    router_ = std::make_unique<espresso::Router>("serving-router", &registry_,
                                                 controller_.get(), transport_);

    for (int i = 0; i < kVoldemortKeys; ++i) {
      keys_.push_back("member:" + std::to_string(i));
      values_.push_back(Value(i));
      MustOk(store_->PutValue(keys_.back(), values_.back()), "preload put");
    }
    for (int i = 0; i < kEspressoDocs; ++i) {
      uris_.push_back("/db/docs/m" + std::to_string(i));
      auto etag = router_->PutDocument(uris_.back(), *Document(i));
      MustOk(etag.status(), "preload document");
      etags_.push_back(etag.value());
    }
  }

  void Run(RunResult* result) override {
    const int64_t ops = config_.ops > 0 ? config_.ops : kDefaultOps;
    result->read_us.reserve(ops);
    result->write_us.reserve(ops);
    const auto before = StorageSnapshot();
    const int64_t repairs_before =
        RegistryTotal(metrics_.Snapshot(), "voldemort.read_repairs");
    for (int64_t i = 0; i < ops; ++i) {
      ++result->attempted;
      bool voldemort = false, read = false;
      int rank = 0;
      std::string value;
      avro::DatumPtr document;
      {
        ScopedSpan gen(config_.recorder, gen_);
        voldemort = rng_.Uniform(4) < 3;
        read = rng_.Uniform(10) < 6;
        rank = static_cast<int>(voldemort ? voldemort_keys_.Next()
                                          : espresso_docs_.Next());
        if (!read && voldemort) value = Value(rank);
        if (!read && !voldemort) document = Document(rank);
      }
      if (voldemort && read) {
        VoldemortGet(rank, result);
      } else if (voldemort) {
        VoldemortPut(rank, std::move(value), result);
      } else if (read) {
        EspressoGet(rank, result);
      } else {
        EspressoPut(rank, *document, result);
      }
    }
    const auto after = StorageSnapshot();
    result->read_repairs =
        RegistryTotal(metrics_.Snapshot(), "voldemort.read_repairs") -
        repairs_before;
    result->compactions = after.compactions - before.compactions;
    result->storage_total_bytes = after.total_bytes;
    result->storage_live_bytes = after.total_bytes - after.dead_bytes;
  }

  void Check(RunResult* result) override {
    // Every key still reads back as this client's last write.
    for (int i = 0; i < kVoldemortKeys; ++i) {
      auto r = store_->Get(keys_[i]);
      if (!r.ok() || r.value().size() != 1 ||
          r.value()[0].value != values_[i]) {
        result->Fail("final read of " + keys_[i]);
      }
    }
    for (int i = 0; i < kEspressoDocs; ++i) {
      auto r = router_->GetRecord(uris_[i]);
      if (!r.ok() || r.value().etag != etags_[i]) {
        result->Fail("final read of " + uris_[i]);
      }
    }
  }

 private:
  struct StorageTotals {
    int64_t compactions = 0;
    double total_bytes = 0;
    double dead_bytes = 0;
  };

  /// The key, a write counter (so a stale read never matches), then filler.
  std::string Value(int rank) {
    std::string v = keys_[rank] + "#" + std::to_string(++version_) + "#";
    v += filler_.Take(kValueBytes - v.size());
    return v;
  }

  avro::DatumPtr Document(int rank) {
    auto doc = avro::Datum::Record("Doc");
    doc->SetField("title", avro::Datum::String("member " + std::to_string(rank) +
                                               " v" + std::to_string(++version_)));
    doc->SetField("body", avro::Datum::String(filler_.Take(64)));
    doc->SetField("rank", avro::Datum::Int(rank));
    return doc;
  }

  StorageTotals StorageSnapshot() const {
    StorageTotals totals;
    for (const auto& server : servers_) {
      auto* engine = dynamic_cast<storage::LogStructuredEngine*>(
          server->GetEngine("profiles"));
      if (engine == nullptr) continue;
      const auto snapshot = engine->metrics()->Snapshot();
      totals.compactions += RegistryTotal(snapshot, "storage.compactions");
      totals.total_bytes += RegistryTotal(snapshot, "storage.total_bytes");
      totals.dead_bytes += RegistryTotal(snapshot, "storage.dead_bytes");
    }
    return totals;
  }

  void VoldemortGet(int rank, RunResult* result) {
    const int64_t start = NowNs();
    auto r = [&] {
      ScopedSpan span(config_.recorder, voldemort_get_);
      return store_->Get(keys_[rank]);
    }();
    result->read_us.push_back(MicrosSince(start));
    if (!r.ok()) return result->Fail("get " + r.status().ToString());
    ++result->completed;
    if (r.value().size() != 1 || r.value()[0].value != values_[rank]) {
      result->Fail("stale read of " + keys_[rank]);
    }
  }

  void VoldemortPut(int rank, std::string value, RunResult* result) {
    const int64_t start = NowNs();
    const Status s = [&] {
      ScopedSpan span(config_.recorder, voldemort_put_);
      return store_->PutValue(keys_[rank], value);
    }();
    result->write_us.push_back(MicrosSince(start));
    if (!s.ok()) return result->Fail("put " + s.ToString());
    ++result->completed;
    values_[rank] = std::move(value);
  }

  void EspressoGet(int rank, RunResult* result) {
    const int64_t start = NowNs();
    auto r = [&] {
      ScopedSpan span(config_.recorder, espresso_get_);
      return router_->GetRecord(uris_[rank]);
    }();
    result->read_us.push_back(MicrosSince(start));
    if (!r.ok()) return result->Fail("GetRecord " + r.status().ToString());
    ++result->completed;
    if (r.value().etag != etags_[rank]) {
      result->Fail("stale document " + uris_[rank]);
    }
  }

  void EspressoPut(int rank, const avro::Datum& document, RunResult* result) {
    const int64_t start = NowNs();
    auto r = [&] {
      ScopedSpan span(config_.recorder, espresso_put_);
      return router_->PutDocument(uris_[rank], document);
    }();
    result->write_us.push_back(MicrosSince(start));
    if (!r.ok()) return result->Fail("PutDocument " + r.status().ToString());
    ++result->completed;
    etags_[rank] = r.value();
  }

  const RunConfig config_;
  obs::MetricsRegistry metrics_;
  // Destroyed after the transport below has joined the threads that run
  // its handlers, which point into it.
  std::unique_ptr<TracingTransport> tracing_;
  // Destroyed after every component below, all of which hold it.
  net::TcpTransport tcp_;
  net::Transport* transport_ = nullptr;

  std::shared_ptr<voldemort::ClusterMetadata> metadata_;
  std::vector<std::unique_ptr<voldemort::VoldemortServer>> servers_;
  std::unique_ptr<voldemort::StoreClient> store_;

  zk::ZooKeeper zk_;
  espresso::SchemaRegistry registry_;
  espresso::EspressoRelay espresso_relay_;
  std::unique_ptr<helix::HelixController> controller_;
  std::vector<std::unique_ptr<espresso::StorageNode>> nodes_;
  std::unique_ptr<espresso::Router> router_;

  Filler filler_;
  Random rng_;
  ZipfGenerator voldemort_keys_;
  ZipfGenerator espresso_docs_;
  int64_t version_ = 0;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;  // this client's last write per key
  std::vector<std::string> uris_;
  std::vector<std::string> etags_;   // etag of the last write per document

  const int32_t gen_, voldemort_get_, voldemort_put_, espresso_get_,
      espresso_put_;
};

// --- activity --------------------------------------------------------------

/// Kafka activity events over TCP: one thread publishes a window of 50-message
/// batches to a 4-partition topic, then polls until the window is drained.
class Activity final : public Workload {
 public:
  static constexpr int kPartitions = 4;
  static constexpr int kBatchMessages = 50;
  static constexpr int kWindowBatches = 8;
  static constexpr size_t kMessageBytes = 200;
  static constexpr int kPreloadWindows = 40;
  static constexpr int64_t kDefaultMessages = 160'000;

  explicit Activity(const RunConfig& config)
      : config_(config),
        tcp_(net::TcpTransportOptions{}, &metrics_),
        memfs_(io::NewMemFs()),
        filler_(config.seed),
        rng_(config.seed),
        gen_(Name(config, "workload.gen")),
        publish_(Name(config, "kafka.publish")),
        poll_(Name(config, "kafka.poll")) {
    metrics_.set_enabled(config.obs_enabled);
    if (config.recorder != nullptr) {
      tracing_ = std::make_unique<TracingTransport>(&tcp_, config.recorder);
      tracing_fs_ = std::make_unique<TracingFs>(memfs_.get(), config.recorder);
    }
    transport_ = tracing_ != nullptr ? static_cast<net::Transport*>(tracing_.get())
                                     : &tcp_;
  }

  const char* transport() const override { return "tcp"; }
  const char* data_dir() const override {
    return "memfs:/activity (in-memory io::Fs, sync=never)";
  }

  void Setup() override {
    kafka::BrokerOptions bopts;
    bopts.log.data_dir = "/activity/broker-0";
    bopts.log.fs = tracing_fs_ != nullptr ? tracing_fs_.get() : memfs_.get();
    bopts.log.sync = io::SyncPolicy::kNever;
    bopts.log.metrics = &metrics_;
    broker_ = std::make_unique<kafka::Broker>(0, &zk_, transport_,
                                              SystemClock::Default(), bopts);
    MustOk(broker_->CreateTopic("activity", kPartitions), "kafka CreateTopic");
    kafka::ProducerOptions popts;
    popts.codec = CompressionCodec::kNone;
    popts.batch_size = kBatchMessages;
    popts.seed = config_.seed;
    producer_ = std::make_unique<kafka::Producer>("activity-producer", &zk_,
                                                  transport_, popts);
    kafka::ConsumerOptions copts;
    copts.max_fetch_bytes = 300 << 10;
    consumer_ = std::make_unique<kafka::Consumer>(
        "activity-consumer", "activity-group", &zk_, transport_, copts);
    MustOk(consumer_->Subscribe("activity"), "kafka Subscribe");

    // One routing key per partition, so each batch fills one partition's
    // pending batch and every message's header names its real partition.
    auto partitions = producer_->PartitionsOf("activity");
    MustOk(partitions.status(), "kafka PartitionsOf");
    const auto& tps = partitions.value();
    for (size_t i = 0; i < tps.size(); ++i) {
      for (int k = 0;; ++k) {
        std::string key = "route-" + std::to_string(k);
        if (Fnv1a64(key) % tps.size() == i) {
          routes_.push_back({key, tps[i].partition});
          break;
        }
      }
    }
    next_sent_.assign(kPartitions, 0);
    next_received_.assign(kPartitions, 0);

    RunResult warmup;
    for (int w = 0; w < kPreloadWindows; ++w) Window(&warmup);
    MustOk(warmup.failed == 0 ? Status::OK()
                              : Status::Corruption(warmup.failures.front()),
           "activity preload");
  }

  void Run(RunResult* result) override {
    const int64_t messages = config_.ops > 0 ? config_.ops : kDefaultMessages;
    const int64_t windows =
        std::max<int64_t>(1, messages / (kBatchMessages * kWindowBatches));
    result->write_us.reserve(windows * kWindowBatches);
    const int64_t copied_before =
        RegistryTotal(metrics_.Snapshot(), "kafka.fetch.bytes_copied");
    for (int64_t w = 0; w < windows; ++w) Window(result);
    result->fetch_bytes_copied =
        RegistryTotal(metrics_.Snapshot(), "kafka.fetch.bytes_copied") -
        copied_before;
  }

  void Check(RunResult* result) override {
    for (int p = 0; p < kPartitions; ++p) {
      if (next_received_[p] != next_sent_[p]) {
        result->Fail("partition " + std::to_string(p) + " delivered " +
                     std::to_string(next_received_[p]) + " of " +
                     std::to_string(next_sent_[p]));
      }
    }
  }

 private:
  struct Route {
    std::string key;
    int partition = 0;
  };

  /// Publishes one window of batches, then polls until it is drained.
  void Window(RunResult* result) {
    int64_t outstanding = 0;
    for (int b = 0; b < kWindowBatches; ++b) {
      std::vector<std::string> batch;
      const Route* route = nullptr;
      {
        ScopedSpan gen(config_.recorder, gen_);
        route = &routes_[rng_.Uniform(routes_.size())];
        for (int m = 0; m < kBatchMessages; ++m) batch.push_back(NextMessage(*route));
      }
      result->attempted += kBatchMessages;
      const int64_t start = NowNs();
      const Status s = [&] {
        ScopedSpan span(config_.recorder, publish_);
        for (const std::string& message : batch) {
          Status sent = producer_->Send("activity", route->key, message);
          if (!sent.ok()) return sent;
        }
        return Status::OK();
      }();
      result->write_us.push_back(MicrosSince(start));
      if (!s.ok()) {
        result->Fail("Send " + s.ToString());
        continue;
      }
      outstanding += kBatchMessages;
      result->user_bytes += kBatchMessages * kMessageBytes;
    }

    int empty_polls = 0;
    while (outstanding > 0) {
      const int64_t start = NowNs();
      auto r = [&] {
        ScopedSpan span(config_.recorder, poll_);
        return consumer_->Poll("activity");
      }();
      const double micros = MicrosSince(start);
      ++result->polls;
      if (!r.ok()) {
        result->Fail("Poll " + r.status().ToString());
        if (++empty_polls > 100) break;
        continue;
      }
      if (r.value().empty()) {
        // A drained partition answers empty; give up only if the window
        // never completes.
        if (++empty_polls > 100) {
          result->Fail("window never drained");
          break;
        }
        continue;
      }
      empty_polls = 0;
      result->read_us.push_back(micros);
      for (const kafka::Message& m : r.value()) {
        Receive(m, result);
        --outstanding;
      }
    }
  }

  /// "<partition>:<sequence>:" then seeded filler, kMessageBytes in all.
  std::string NextMessage(const Route& route) {
    char header[32];
    const int n = std::snprintf(
        header, sizeof(header), "%02d:%012lld:", route.partition,
        static_cast<long long>(next_sent_[route.partition]++));
    return std::string(header, n) + filler_.Take(kMessageBytes - n);
  }

  void Receive(const kafka::Message& m, RunResult* result) {
    if (m.payload.size() != kMessageBytes) {
      return result->Fail("message of " + std::to_string(m.payload.size()) +
                          " bytes");
    }
    const int partition = std::atoi(m.payload.substr(0, 2).c_str());
    const long long seq = std::atoll(m.payload.substr(3, 12).c_str());
    if (partition < 0 || partition >= kPartitions) {
      return result->Fail("message names partition " + std::to_string(partition));
    }
    if (seq != next_received_[partition]) {
      result->Fail("partition " + std::to_string(partition) + " expected " +
                   std::to_string(next_received_[partition]) + " got " +
                   std::to_string(seq));
    }
    next_received_[partition] = seq + 1;
    ++result->completed;
    ++result->messages;
  }

  const RunConfig config_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<TracingTransport> tracing_;
  net::TcpTransport tcp_;
  net::Transport* transport_ = nullptr;
  std::unique_ptr<io::Fs> memfs_;
  std::unique_ptr<TracingFs> tracing_fs_;

  zk::ZooKeeper zk_;
  std::unique_ptr<kafka::Broker> broker_;
  std::unique_ptr<kafka::Producer> producer_;
  std::unique_ptr<kafka::Consumer> consumer_;

  Filler filler_;
  Random rng_;
  std::vector<Route> routes_;
  std::vector<int64_t> next_sent_;      // by partition
  std::vector<int64_t> next_received_;  // by partition

  const int32_t gen_, publish_, poll_;
};

// --- capture ---------------------------------------------------------------

/// Source-of-truth commits captured by Databus over the in-process sim
/// transport: single-row commits with binlog sync=always and group commit,
/// one capture pull (relay, then client) after each window of commits.
class Capture final : public Workload {
 public:
  static constexpr int kUsers = 100'000;
  static constexpr int kWindowCommits = 32;
  static constexpr int kPreloadCommits = 20'000;
  static constexpr int64_t kDefaultCommits = 120'000;

  explicit Capture(const RunConfig& config)
      : config_(config),
        network_(config.seed, &metrics_, SystemClock::Default()),
        memfs_(io::NewMemFs()),
        filler_(config.seed),
        users_(kUsers, 0.99, config.seed + 1),
        gen_(Name(config, "workload.gen")),
        commit_(Name(config, "sqlstore.commit")),
        relay_poll_(Name(config, "databus.relay_poll")),
        client_poll_(Name(config, "databus.client_poll")) {
    metrics_.set_enabled(config.obs_enabled);
    if (config.recorder != nullptr) {
      tracing_ = std::make_unique<TracingTransport>(&network_, config.recorder);
      tracing_fs_ = std::make_unique<TracingFs>(memfs_.get(), config.recorder);
    }
    transport_ = tracing_ != nullptr ? static_cast<net::Transport*>(tracing_.get())
                                     : &network_;
  }

  const char* transport() const override { return "sim"; }
  const char* data_dir() const override {
    return "memfs:/capture (in-memory io::Fs, sync=always, group commit)";
  }

  void Setup() override {
    sqlstore::BinlogOptions bopts;
    bopts.data_dir = "/capture/source";
    bopts.fs = tracing_fs_ != nullptr ? tracing_fs_.get() : memfs_.get();
    bopts.sync = io::SyncPolicy::kAlways;
    bopts.group_commit = true;
    bopts.metrics = &metrics_;
    source_ = std::make_unique<sqlstore::Database>("source", bopts);
    MustOk(source_->CreateTable("profiles"), "sqlstore CreateTable");
    relay_ = std::make_unique<databus::Relay>("capture-relay", source_.get(),
                                              transport_);
    consumer_ = std::make_unique<databus::CallbackConsumer>(
        [this](const databus::Event& e) {
          Deliver(e);
          return Status::OK();
        });
    client_ = std::make_unique<databus::DatabusClient>(
        "capture-client", "capture-relay", "", transport_, consumer_.get());

    RunResult warmup;
    for (int w = 0; w < kPreloadCommits / kWindowCommits; ++w) Window(&warmup);
    MustOk(warmup.failed == 0 ? Status::OK()
                              : Status::Corruption(warmup.failures.front()),
           "capture preload");
  }

  void Run(RunResult* result) override {
    const int64_t commits = config_.ops > 0 ? config_.ops : kDefaultCommits;
    const int64_t windows = std::max<int64_t>(1, commits / kWindowCommits);
    result->write_us.reserve(windows * kWindowCommits);
    result->read_us.reserve(windows);
    const int64_t piggybacked_before =
        RegistryTotal(metrics_.Snapshot(), "io.group_commit.piggybacked");
    for (int64_t w = 0; w < windows; ++w) Window(result);
    result->piggybacked =
        RegistryTotal(metrics_.Snapshot(), "io.group_commit.piggybacked") -
        piggybacked_before;
  }

  void Check(RunResult* result) override {
    const auto& binlog = source_->binlog();
    if (binlog.DurableScn() != binlog.LastScn()) {
      result->Fail("durable SCN " + std::to_string(binlog.DurableScn()) +
                   " behind last SCN " + std::to_string(binlog.LastScn()));
    }
    if (delivered_scn_ != binlog.LastScn()) {
      result->Fail("delivered through SCN " + std::to_string(delivered_scn_) +
                   " of " + std::to_string(binlog.LastScn()));
    }
  }

 private:
  /// Commits one window, then makes one capture pull.
  void Window(RunResult* result) {
    active_ = result;
    for (int c = 0; c < kWindowCommits; ++c) {
      std::string key;
      sqlstore::Row row;
      {
        ScopedSpan gen(config_.recorder, gen_);
        const uint64_t user = users_.Next();
        key = "member:" + std::to_string(user);
        row["name"] = "member " + std::to_string(user);
        row["headline"] = filler_.Take(96);
      }
      const double bytes =
          key.size() + row["name"].size() + row["headline"].size();
      ++result->attempted;
      const int64_t start = NowNs();
      auto scn = [&] {
        ScopedSpan span(config_.recorder, commit_);
        return source_->Put("profiles", key, std::move(row));
      }();
      result->write_us.push_back(MicrosSince(start));
      if (!scn.ok()) {
        result->Fail("Put " + scn.status().ToString());
        continue;
      }
      if (scn.value() != ++committed_scn_) {
        result->Fail("commit got SCN " + std::to_string(scn.value()) +
                     ", expected " + std::to_string(committed_scn_));
        committed_scn_ = scn.value();
      }
      ++result->commits;
      result->user_bytes += bytes;
    }

    const int64_t start = NowNs();
    const Status s = [&] {
      auto ingested = [&] {
        ScopedSpan span(config_.recorder, relay_poll_);
        return relay_->PollOnce();
      }();
      if (!ingested.ok()) return ingested.status();
      ScopedSpan span(config_.recorder, client_poll_);
      return client_->PollOnce().status();
    }();
    result->read_us.push_back(MicrosSince(start));
    ++result->pulls;
    if (!s.ok()) result->Fail("capture pull " + s.ToString());
    active_ = nullptr;
  }

  /// Consumer callback: SCNs arrive once each, densely, in commit order.
  void Deliver(const databus::Event& e) {
    if (e.scn != delivered_scn_ + 1) {
      active_->Fail("delivered SCN " + std::to_string(e.scn) + " after " +
                    std::to_string(delivered_scn_));
    }
    delivered_scn_ = e.scn;
    ++active_->completed;
    ++active_->events;
  }

  const RunConfig config_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<TracingTransport> tracing_;
  net::Network network_;
  net::Transport* transport_ = nullptr;
  std::unique_ptr<io::Fs> memfs_;
  std::unique_ptr<TracingFs> tracing_fs_;

  std::unique_ptr<sqlstore::Database> source_;
  std::unique_ptr<databus::Relay> relay_;
  std::unique_ptr<databus::CallbackConsumer> consumer_;
  std::unique_ptr<databus::DatabusClient> client_;

  Filler filler_;
  ZipfGenerator users_;
  int64_t committed_scn_ = 0;
  int64_t delivered_scn_ = 0;
  RunResult* active_ = nullptr;  // the window's result, for Deliver

  const int32_t gen_, commit_, relay_poll_, client_poll_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config) {
  if (name == "serving") return std::make_unique<Serving>(config);
  if (name == "activity") return std::make_unique<Activity>(config);
  if (name == "capture") return std::make_unique<Capture>(config);
  return nullptr;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p * samples.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::map<std::string, double> LayerMetrics(const TraceView& t,
                                           const RunResult& r) {
  const double ops = static_cast<double>(r.completed);
  auto p50 = [&t](const std::string& prefix) {
    return Percentile(t.Durations(prefix), 0.5);
  };
  std::map<std::string, double> m;

  m["net.calls_per_op"] = Ratio(t.Count("net.call:"), ops);
  m["net.call_p50_us"] = p50("net.call:");
  m["net.self_p50_us"] =
      Percentile(t.SelfTimes("net.call:", "net.handler:"), 0.5);
  m["net.bytes_per_op"] = Ratio(t.Bytes("net.call:"), ops);

  m["voldemort.get_p50_us"] = p50("voldemort.get");
  m["voldemort.put_p50_us"] = p50("voldemort.put");
  m["voldemort.calls_per_get"] = t.ChildrenPer("voldemort.get", "net.call:");
  m["voldemort.calls_per_put"] = t.ChildrenPer("voldemort.put", "net.call:");
  m["voldemort.server_get_p50_us"] = p50("net.handler:v.get");
  m["voldemort.server_put_p50_us"] = p50("net.handler:v.put");
  m["voldemort.read_repairs_per_kop"] = Ratio(r.read_repairs * 1000.0, ops);
  m["storage.compactions"] = r.compactions;
  m["storage.bytes_per_live_byte"] =
      Ratio(r.storage_total_bytes, r.storage_live_bytes);

  m["espresso.get_p50_us"] = p50("espresso.get");
  m["espresso.put_p50_us"] = p50("espresso.put");
  m["espresso.router_self_p50_us"] =
      Percentile(t.SelfTimes("espresso.", "net.call:"), 0.5);
  m["espresso.server_get_p50_us"] = p50("net.handler:espresso.get");
  m["espresso.server_put_p50_us"] = p50("net.handler:espresso.put");

  m["kafka.produce_p50_us"] = p50("kafka.publish");
  m["kafka.fetch_p50_us"] = p50("kafka.poll");
  m["kafka.server_produce_p50_us"] = p50("net.handler:kafka.produce");
  m["kafka.server_fetch_p50_us"] = p50("net.handler:kafka.fetch");
  m["kafka.msgs_per_fetch"] = Ratio(r.messages, r.polls);
  m["kafka.wire_bytes_per_msg"] = Ratio(t.Bytes("net.call:kafka."), r.messages);
  m["kafka.copied_per_fetched_byte"] =
      Ratio(r.fetch_bytes_copied, t.Bytes("net.call:kafka.fetch"));

  m["io.append_p50_us"] = p50("io.append");
  m["io.sync_p50_us"] = p50("io.sync");
  m["io.appends_per_op"] = Ratio(t.Count("io.append"), ops);
  m["io.syncs_per_op"] = Ratio(t.Count("io.sync"), ops);
  m["io.write_amplification"] = Ratio(t.Bytes("io.append"), r.user_bytes);
  m["io.piggybacked_ratio"] = Ratio(r.piggybacked, r.commits);

  m["sqlstore.commit_p50_us"] = p50("sqlstore.commit");
  m["sqlstore.commit_self_p50_us"] =
      Percentile(t.SelfTimes("sqlstore.commit", "io."), 0.5);
  m["sqlstore.binlog_bytes_per_commit"] =
      r.commits > 0 ? Ratio(t.Bytes("io.append"), r.commits) : 0;

  m["databus.relay_poll_p50_us"] = p50("databus.relay_poll");
  m["databus.client_poll_p50_us"] = p50("databus.client_poll");
  m["databus.events_per_pull"] = Ratio(r.events, r.pulls);
  m["databus.wire_bytes_per_event"] =
      Ratio(t.Bytes("net.call:databus.read"), r.events);

  m["workload.gen_p50_us"] = p50("workload.gen");
  return m;
}

}  // namespace lidi::perfbench
