#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "io/group_commit.h"
#include "kafka/broker.h"
#include "kafka/message.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "storage/log_engine.h"
#include "zk/zookeeper.h"

namespace lidi {
namespace {

using obs::HistogramBuckets;
using obs::Labels;
using obs::MetricsRegistry;

// --- instruments ---

TEST(MetricsRegistryTest, CounterIdentityAndValue) {
  MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("x.count", {{"node", "a"}});
  ASSERT_NE(c, nullptr);
  // Same (name, labels) -> same instrument, regardless of label order.
  EXPECT_EQ(registry.GetCounter("x.count", {{"node", "a"}}), c);
  obs::Counter* c2 =
      registry.GetCounter("multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(registry.GetCounter("multi", {{"a", "1"}, {"b", "2"}}), c2);
  // Distinct labels -> distinct instrument.
  EXPECT_NE(registry.GetCounter("x.count", {{"node", "b"}}), c);

  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("dual"), nullptr);
  EXPECT_EQ(registry.GetGauge("dual"), nullptr);
  EXPECT_EQ(registry.GetHistogram("dual"), nullptr);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsWrites) {
  MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("c");
  obs::Gauge* g = registry.GetGauge("g");
  obs::LatencyHistogram* h = registry.GetHistogram("h");
  registry.set_enabled(false);
  c->Increment();
  g->Add(5);
  h->Record(10);
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0);
  // Gauge::Set records state, not traffic: it applies even when disabled.
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  registry.set_enabled(true);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

TEST(MetricsRegistryTest, GaugeSetAddReset) {
  MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("occupancy");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
  g->Reset();
  EXPECT_EQ(g->Value(), 0);
}

// --- histogram buckets ---

TEST(HistogramBucketsTest, LadderBoundaries) {
  // 1-2-5 ladder over ten decades.
  EXPECT_EQ(HistogramBuckets::UpperBound(0), 1);
  EXPECT_EQ(HistogramBuckets::UpperBound(1), 2);
  EXPECT_EQ(HistogramBuckets::UpperBound(2), 5);
  EXPECT_EQ(HistogramBuckets::UpperBound(3), 10);
  EXPECT_EQ(HistogramBuckets::UpperBound(4), 20);
  EXPECT_EQ(HistogramBuckets::UpperBound(5), 50);
  EXPECT_EQ(HistogramBuckets::UpperBound(29), 5'000'000'000);
  // Overflow bucket is unbounded.
  EXPECT_EQ(HistogramBuckets::UpperBound(HistogramBuckets::kCount - 1),
            INT64_MAX);
}

TEST(HistogramBucketsTest, BucketForEdges) {
  EXPECT_EQ(HistogramBuckets::BucketFor(0), 0);
  EXPECT_EQ(HistogramBuckets::BucketFor(1), 0);  // bounds are inclusive
  EXPECT_EQ(HistogramBuckets::BucketFor(2), 1);
  EXPECT_EQ(HistogramBuckets::BucketFor(3), 2);
  EXPECT_EQ(HistogramBuckets::BucketFor(5), 2);
  EXPECT_EQ(HistogramBuckets::BucketFor(6), 3);
  EXPECT_EQ(HistogramBuckets::BucketFor(999), 9);  // (500, 1000]
  EXPECT_EQ(HistogramBuckets::BucketFor(5'000'000'000), 29);
  // Past the last bound: the overflow bucket.
  EXPECT_EQ(HistogramBuckets::BucketFor(5'000'000'001),
            HistogramBuckets::kCount - 1);
}

TEST(LatencyHistogramTest, RecordSnapshotAndPercentiles) {
  MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.GetHistogram("lat");

  // Empty histogram: explicit zero contract.
  obs::HistogramSnapshot empty = h->Snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.Average(), 0);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0);
  EXPECT_EQ(empty.max, 0);

  for (int i = 0; i < 90; ++i) h->Record(4);    // bucket (2, 5]
  for (int i = 0; i < 10; ++i) h->Record(900);  // bucket (500, 1000]
  obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.sum, 90 * 4 + 10 * 900);
  EXPECT_EQ(snap.max, 900);
  // p50 interpolates inside the (2, 5] bucket; p99 inside (500, 1000],
  // clamped to the exact max.
  EXPECT_GT(snap.Percentile(50), 2.0);
  EXPECT_LE(snap.Percentile(50), 5.0);
  EXPECT_GT(snap.Percentile(99), 500.0);
  EXPECT_LE(snap.Percentile(99), 900.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 900.0);

  h->Reset();
  EXPECT_EQ(h->Count(), 0);
}

TEST(LatencyHistogramTest, OverflowBucketInterpolatesAgainstMax) {
  MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.GetHistogram("lat");
  h->Record(6'000'000'000);  // past the last bounded bucket
  obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.buckets[HistogramBuckets::kCount - 1], 1);
  EXPECT_EQ(snap.max, 6'000'000'000);
  EXPECT_LE(snap.Percentile(99), 6'000'000'000.0);
  EXPECT_GT(snap.Percentile(99), 0.0);
}

// Bucket-0 lower-edge contract: when the rank falls in the very first
// bucket, interpolation starts from lo = 0 — there is no UpperBound(-1).
// Every estimate must land inside [0, UpperBound(0)] and p=0 must not go
// negative or above the bucket's upper edge.
TEST(LatencyHistogramTest, PercentileBucketZeroLowerEdgeIsZero) {
  MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.GetHistogram("lat");
  // All samples in bucket 0: (.., 1] — value 1 is the first upper bound.
  for (int i = 0; i < 100; ++i) h->Record(1);
  obs::HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.buckets[0], 100);
  for (const double p : {0.0, 0.5, 50.0, 99.0, 100.0}) {
    const double est = snap.Percentile(p);
    EXPECT_GE(est, 0.0) << "p=" << p;
    EXPECT_LE(est, static_cast<double>(HistogramBuckets::UpperBound(0)))
        << "p=" << p;
  }
  // p=0 sits at the very bottom of bucket 0: the interpolation fraction is
  // 0, so the estimate is exactly the lower edge, 0.
  EXPECT_DOUBLE_EQ(snap.Percentile(0), 0.0);
  // Out-of-range p is clamped, not undefined.
  EXPECT_DOUBLE_EQ(snap.Percentile(-5), snap.Percentile(0));
  EXPECT_DOUBLE_EQ(snap.Percentile(200), snap.Percentile(100));
}

// A single-bucket (single-sample) snapshot: every percentile interpolates
// within that one bucket and clamps to the exact max.
TEST(LatencyHistogramTest, PercentileSingleSampleSnapshot) {
  MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.GetHistogram("lat");
  h->Record(42);  // bucket (20, 50]
  obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 42.0);
  for (const double p : {0.0, 50.0, 99.9}) {
    const double est = snap.Percentile(p);
    EXPECT_GE(est, 20.0) << "p=" << p;
    EXPECT_LE(est, 42.0) << "p=" << p;
  }
}

// Overflow-only snapshot: all mass in the unbounded bucket. The lower edge
// is the last bounded ladder rung and the upper edge is the recorded max;
// no percentile may exceed max or fall below the rung.
TEST(LatencyHistogramTest, PercentileOverflowOnlySnapshot) {
  MetricsRegistry registry;
  obs::LatencyHistogram* h = registry.GetHistogram("lat");
  for (int i = 0; i < 10; ++i) h->Record(7'000'000'000);
  obs::HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.buckets[HistogramBuckets::kCount - 1], 10);
  const double rung =
      static_cast<double>(HistogramBuckets::UpperBound(HistogramBuckets::kCount - 2));
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    const double est = snap.Percentile(p);
    EXPECT_GE(est, rung) << "p=" << p;
    EXPECT_LE(est, 7'000'000'000.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 7'000'000'000.0);
}

// --- snapshot API ---

TEST(MetricsRegistryTest, SnapshotIsSortedAndStable) {
  MetricsRegistry registry;
  registry.GetCounter("zz.last")->Add(1);
  registry.GetCounter("aa.first")->Add(2);
  registry.GetGauge("mm.middle", {{"k", "v"}})->Set(3);

  obs::RegistrySnapshot snap1 = registry.Snapshot();
  ASSERT_EQ(snap1.instruments.size(), 3u);
  EXPECT_EQ(snap1.instruments[0].full_name(), "aa.first");
  EXPECT_EQ(snap1.instruments[1].full_name(), "mm.middle{k=v}");
  EXPECT_EQ(snap1.instruments[2].full_name(), "zz.last");

  // A second snapshot of an unchanged registry lines up exactly.
  obs::RegistrySnapshot snap2 = registry.Snapshot();
  ASSERT_EQ(snap2.instruments.size(), snap1.instruments.size());
  for (size_t i = 0; i < snap1.instruments.size(); ++i) {
    EXPECT_EQ(snap2.instruments[i].full_name(),
              snap1.instruments[i].full_name());
    EXPECT_EQ(snap2.instruments[i].value, snap1.instruments[i].value);
  }

  EXPECT_EQ(snap1.Value("aa.first"), 2);
  EXPECT_EQ(snap1.Value("mm.middle", {{"k", "v"}}), 3);
  // Missing instruments read as zero, like a production metric store.
  EXPECT_EQ(snap1.Value("no.such"), 0);
  EXPECT_EQ(snap1.Find("no.such"), nullptr);
}

TEST(MetricsRegistryTest, ResetAllZeroesInstrumentsAndClearsSpans) {
  ManualClock clock;
  MetricsRegistry registry(&clock);
  registry.GetCounter("c")->Add(5);
  registry.GetGauge("g")->Set(6);
  registry.GetHistogram("h")->Record(7);
  { obs::ScopedSpan span(&registry, "work"); }
  ASSERT_EQ(registry.Snapshot().spans.size(), 1u);

  registry.ResetAll();
  obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("c"), 0);
  EXPECT_EQ(snap.Value("g"), 0);
  EXPECT_EQ(snap.Find("h")->hist.count, 0);
  EXPECT_TRUE(snap.spans.empty());
}

// --- group-commit instruments ---

TEST(GroupCommitInstrumentsTest, ExportedInSnapshot) {
  MetricsRegistry registry;
  int64_t frontier = 0;
  io::GroupCommitOptions options;
  options.metrics = &registry;
  options.layer = "test.layer";
  io::GroupCommitter committer(
      [&frontier]() -> Result<int64_t> { return frontier; }, options);

  // Two single-threaded syncs: each caller leads its own batch of one.
  frontier = 10;
  ASSERT_TRUE(committer.SyncTo(10).ok());
  frontier = 20;
  ASSERT_TRUE(committer.SyncTo(20).ok());
  // Already covered: acknowledged without a sync — the piggyback count.
  ASSERT_TRUE(committer.SyncTo(15).ok());

  const Labels labels{{"layer", "test.layer"}};
  obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("io.group_commit.leader_syncs", labels), 2);
  EXPECT_EQ(snap.Value("io.group_commit.piggybacked", labels), 1);
  const obs::InstrumentSnapshot* batches =
      snap.Find("io.sync.batch_msgs", labels);
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->hist.count, 2);  // one batch-size sample per leader sync
}

// --- spans ---

TEST(ScopedSpanTest, RecordsDurationOutcomeAndParentage) {
  ManualClock clock;
  MetricsRegistry registry(&clock);
  {
    obs::ScopedSpan root(&registry, "outer");
    root.set_outcome(Code::kTimeout);
    clock.AdvanceMicros(10);
    {
      obs::ScopedSpan child(&registry, "inner", &root.context());
      child.set_peer("node-1");
      child.add_bytes_sent(3);
      child.add_bytes_received(8);
      clock.AdvanceMicros(5);
    }
    clock.AdvanceMicros(10);
  }
  obs::RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);  // oldest first: inner finished first
  const obs::SpanRecord& inner = snap.spans[0];
  const obs::SpanRecord& outer = snap.spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(outer.parent_span_id, 0u);
  EXPECT_EQ(inner.duration_micros, 5);
  EXPECT_EQ(outer.duration_micros, 25);
  EXPECT_EQ(inner.outcome, Code::kOk);
  EXPECT_EQ(outer.outcome, Code::kTimeout);
  EXPECT_EQ(inner.peer, "node-1");
  EXPECT_EQ(inner.bytes_sent, 3);
  EXPECT_EQ(inner.bytes_received, 8);
}

TEST(ScopedSpanTest, InheritsDeadlineBudgetFromParent) {
  MetricsRegistry registry;
  obs::TraceContext root = registry.StartTrace(/*deadline_micros=*/12345);
  obs::ScopedSpan child(&registry, "hop", &root);
  EXPECT_EQ(child.context().trace_id, root.trace_id);
  EXPECT_EQ(child.context().deadline_micros, 12345);
  EXPECT_NE(child.context().span_id, root.span_id);
}

TEST(ScopedSpanTest, NullRegistryIsNoOp) {
  obs::ScopedSpan span(nullptr, "nothing");
  span.set_outcome(Code::kInternal);
  span.set_peer("x");
  // Destruction must not crash; there is nowhere to record to.
}

TEST(MetricsRegistryTest, SpanRingDropsOldestPastCapacity) {
  ManualClock clock;
  MetricsRegistry registry(&clock);
  registry.set_span_capacity(2);
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan span(&registry, "s" + std::to_string(i));
  }
  obs::RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].name, "s1");
  EXPECT_EQ(snap.spans[1].name, "s2");
}

TEST(MetricsRegistryTest, DisabledRegistryDropsSpans) {
  MetricsRegistry registry;
  registry.set_enabled(false);
  { obs::ScopedSpan span(&registry, "dropped"); }
  EXPECT_TRUE(registry.Snapshot().spans.empty());
}

// --- renderers ---

TEST(RenderTest, TextContainsInstrumentsAndSpans) {
  ManualClock clock;
  MetricsRegistry registry(&clock);
  registry.GetCounter("net.calls", {{"endpoint", "s"}})->Add(3);
  registry.GetGauge("storage.keys")->Set(9);
  registry.GetHistogram("lat")->Record(42);
  { obs::ScopedSpan span(&registry, "op"); }

  const std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("net.calls{endpoint=s} = 3 (counter)"),
            std::string::npos);
  EXPECT_NE(text.find("storage.keys = 9 (gauge)"), std::string::npos);
  EXPECT_NE(text.find("lat n=1"), std::string::npos);
  EXPECT_NE(text.find("--- spans (1 most recent) ---"), std::string::npos);
  EXPECT_NE(text.find("op"), std::string::npos);
}

TEST(RenderTest, JsonOneObjectPerLine) {
  MetricsRegistry registry;
  registry.GetCounter("kafka.fetch.count", {{"broker", "0"}})->Add(7);
  registry.GetHistogram("lat")->Record(10);

  const std::string json = registry.Snapshot().ToJson("E-obs");
  EXPECT_NE(json.find("{\"experiment\": \"E-obs\", \"instrument\": "
                      "\"kafka.fetch.count\", \"broker\": \"0\", "
                      "\"value\": 7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"instrument\": \"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\": "), std::string::npos);
  // One object per line: every line starts with '{' and ends with '}'.
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(json[start], '{');
    EXPECT_EQ(json[end - 1], '}');
    start = end + 1;
  }
}

// --- component stats land in the registry ---

TEST(RegistryStatsTest, BrokerCopyAccounting) {
  zk::ZooKeeper zk;
  net::Network nw;
  ManualClock clock;
  kafka::BrokerOptions options;
  options.transfer_mode = kafka::TransferMode::kSendfile;
  kafka::Broker broker(0, &zk, &nw, &clock, options);
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());

  kafka::MessageSetBuilder builder;
  builder.Add("payload-bytes");
  ASSERT_TRUE(broker.Produce("t", 0, builder.Build()).ok());
  broker.FlushAll();
  ASSERT_TRUE(broker.Fetch("t", 0, 0, 1 << 20).ok());

  obs::RegistrySnapshot snap = nw.metrics()->Snapshot();
  const Labels labels{{"broker", "0"}};
  EXPECT_GT(snap.Value("kafka.fetch.count", labels), 0);
  EXPECT_GT(snap.Value("kafka.fetch.bytes_avoided", labels), 0);
  EXPECT_EQ(snap.Value("kafka.produce.count", labels), 1);
  broker.Shutdown();
}

TEST(RegistryStatsTest, LogEngineGauges) {
  storage::LogEngineOptions options;
  options.compaction_garbage_ratio = 10.0;  // only compact on demand
  auto engine = storage::NewLogStructuredEngine(options);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine->Put("k" + std::to_string(i % 10), "value").ok());
  }
  engine->CompactNow();

  obs::RegistrySnapshot snap = engine->metrics()->Snapshot();
  EXPECT_EQ(snap.Value("storage.live_keys"), 10);
  EXPECT_EQ(snap.Value("storage.compactions"), 1);
}

// --- RPC spans through the network ---

TEST(NetworkSpanTest, NestedCallsShareOneTrace) {
  net::Network nw;
  nw.Register("backend", "b.m",
              [](Slice) -> Result<std::string> { return std::string("B"); });
  nw.Register("frontend", "f.m", [&nw](Slice req) -> Result<std::string> {
    // No explicit trace: the nested call attaches to the enclosing span via
    // the ambient context.
    auto r = nw.Call("frontend", "backend", "b.m", req);
    if (!r.ok()) return r.status();
    return "F+" + r.value();
  });
  ASSERT_TRUE(nw.Call("client", "frontend", "f.m", "req").ok());

  obs::RegistrySnapshot snap = nw.metrics()->Snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);  // inner hop finished first
  const obs::SpanRecord& inner = snap.spans[0];
  const obs::SpanRecord& outer = snap.spans[1];
  EXPECT_EQ(inner.name, "b.m");
  EXPECT_EQ(outer.name, "f.m");
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(inner.peer, "backend");
  EXPECT_EQ(outer.bytes_sent, 3);      // "req"
  EXPECT_EQ(outer.bytes_received, 3);  // "F+B"
  EXPECT_EQ(outer.outcome, Code::kOk);
}

TEST(NetworkSpanTest, ExplicitTraceAndFailureOutcome) {
  net::Network nw;
  obs::TraceContext root = nw.metrics()->StartTrace();
  auto r = nw.Call("c", "ghost", "m", "x", net::CallOptions{&root});
  EXPECT_TRUE(r.status().IsNotFound());
  obs::RegistrySnapshot snap = nw.metrics()->Snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].trace_id, root.trace_id);
  EXPECT_EQ(snap.spans[0].parent_span_id, root.span_id);
  EXPECT_EQ(snap.spans[0].outcome, Code::kNotFound);
}

TEST(NetworkSpanTest, DeadlineBudgetFailsFast) {
  ManualClock clock(/*start_micros=*/1000);
  net::Network nw(/*fault_seed=*/42, nullptr, &clock);
  bool reached = false;
  nw.Register("s", "m", [&reached](Slice) -> Result<std::string> {
    reached = true;
    return std::string("ok");
  });
  net::CallOptions expired;
  expired.deadline_micros = 500;  // already past at t=1000
  EXPECT_TRUE(nw.Call("c", "s", "m", "", expired).status().IsTimeout());
  EXPECT_FALSE(reached);

  net::CallOptions live;
  live.deadline_micros = 2000;
  EXPECT_TRUE(nw.Call("c", "s", "m", "", live).ok());
  EXPECT_TRUE(reached);
}

TEST(NetworkSpanTest, DeadlinePropagatesToNestedCalls) {
  ManualClock clock(/*start_micros=*/1000);
  net::Network nw(/*fault_seed=*/42, nullptr, &clock);
  nw.Register("backend", "m",
              [](Slice) -> Result<std::string> { return std::string("B"); });
  nw.Register("frontend", "m", [&nw, &clock](Slice) -> Result<std::string> {
    clock.AdvanceMicros(100);  // the frontend burns the remaining budget
    return nw.Call("frontend", "backend", "m", "");
  });
  net::CallOptions options;
  options.deadline_micros = 1050;
  // The outer call starts inside budget; the nested hop inherits the
  // deadline through the ambient context and fails fast.
  EXPECT_TRUE(nw.Call("client", "frontend", "m", "", options)
                  .status()
                  .IsTimeout());
}

}  // namespace
}  // namespace lidi
