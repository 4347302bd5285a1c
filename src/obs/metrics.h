#ifndef LIDI_OBS_METRICS_H_
#define LIDI_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/clock.h"
#include "obs/trace.h"

namespace lidi::obs {

/// Instrument labels: sorted (key, value) pairs. Identity of an instrument
/// is (name, labels) — GetCounter("net.calls_sent", {{"endpoint", "s"}})
/// always returns the same Counter*.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// "name{k=v,k2=v2}" — the canonical rendering used by Snapshot and tests.
std::string FullName(const std::string& name, const Labels& labels);

/// A monotonically increasing sum, sharded across cache lines so concurrent
/// writers on the hot path do not contend on one atomic. Value() folds the
/// shards. Increments are relaxed atomics: a handful of nanoseconds enabled,
/// one predictable branch when the owning registry is disabled.
class Counter {
 public:
  void Add(int64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t Value() const;

  /// Zeroes all shards. Not linearizable against concurrent Add (a racing
  /// increment may survive or vanish); reset while writers are quiescent.
  void Reset();

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
  const std::atomic<bool>* const enabled_;
};

/// A value that goes up and down (buffer occupancy, live keys, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<int64_t> value_{0};
  const std::atomic<bool>* const enabled_;
};

/// Immutable bucket boundaries shared by every LatencyHistogram: a 1-2-5
/// geometric ladder in microseconds (1, 2, 5, 10, 20, 50, ... up to 1e9us)
/// plus an overflow bucket. Bucket i counts samples in
/// [UpperBound(i-1), UpperBound(i)).
struct HistogramBuckets {
  static constexpr int kCount = 31;  // 30 bounded buckets + overflow
  /// Inclusive upper bound of bucket i (overflow bucket returns INT64_MAX).
  /// Valid for i in [0, kCount); bucket 0's lower edge is 0 by definition —
  /// callers must not reach for UpperBound(-1) to get it.
  static int64_t UpperBound(int i);
  /// Bucket index a value of `micros` lands in.
  static int BucketFor(int64_t micros);
};

/// Aggregated view of one histogram at snapshot time. Percentiles are
/// estimated by linear interpolation inside the owning bucket — the price of
/// bounded memory; the 1-2-5 ladder keeps the error under ~30% of the value,
/// plenty for p99-shape claims. The exact max is tracked separately.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::array<int64_t, HistogramBuckets::kCount> buckets{};

  double Average() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
  /// p in [0, 100]. Returns 0 on an empty histogram (same explicit contract
  /// as the benches' bench::Samples).
  double Percentile(double p) const;
};

/// Fixed-bucket, bounded-memory latency recorder for always-on hot paths.
/// Exact raw-sample percentiles live only in bench/bench_util.h
/// (bench::Samples): that recorder grows an unbounded vector and sorts on
/// read, neither of which belongs on a serving path.
class LatencyHistogram {
 public:
  void Record(int64_t micros);
  HistogramSnapshot Snapshot() const;
  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}

  std::array<std::atomic<int64_t>, HistogramBuckets::kCount> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
  const std::atomic<bool>* const enabled_;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One instrument's state at snapshot time.
struct InstrumentSnapshot {
  std::string name;
  Labels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  int64_t value = 0;          // counter sum or gauge value
  HistogramSnapshot hist;     // kHistogram only

  std::string full_name() const { return FullName(name, labels); }
};

/// The stable struct tree Snapshot() returns: every instrument (sorted by
/// full name, so repeated snapshots of the same registry line up) plus the
/// most recent spans, oldest first. Renderers (render.h) and tests consume
/// this; no caller reads live instruments directly.
struct RegistrySnapshot {
  std::vector<InstrumentSnapshot> instruments;
  std::vector<SpanRecord> spans;

  /// Instrument lookup by identity; nullptr when absent.
  const InstrumentSnapshot* Find(const std::string& name,
                                 const Labels& labels = {}) const;
  /// Counter/gauge value by identity; 0 when absent (missing instrument and
  /// never-incremented instrument are indistinguishable, as in production
  /// metric stores).
  int64_t Value(const std::string& name, const Labels& labels = {}) const;

  /// Renderers live in obs/render.cc.
  std::string ToText() const;
  /// LIDI_BENCH_JSON-compatible: one `{"experiment": ..., "instrument": ...,
  /// <labels>, <metrics>}` object per line, so bench rows and registry dumps
  /// land in the same file with the same shape.
  std::string ToJson(const std::string& experiment) const;
};

/// The repo-wide observability registry: named, labeled instruments plus a
/// bounded ring of recent spans, exported through one Snapshot() call.
///
/// Ownership: instruments are created on first Get* and live as long as the
/// registry; callers cache the returned pointer and hit only relaxed atomics
/// on the hot path. Components default to the registry of the Network they
/// talk through (Network owns one unless handed a shared registry), so an
/// application that passes a single registry everywhere gets one unified
/// snapshot across all four subsystems.
///
/// Thread-safe: Get*/Snapshot/RecordSpan may race with instrument writers.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(const Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : SystemClock::Default()) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, Labels labels = {});
  Gauge* GetGauge(const std::string& name, Labels labels = {});
  LatencyHistogram* GetHistogram(const std::string& name, Labels labels = {});

  /// Kill switch: while disabled, Counter::Add / Gauge::Add /
  /// LatencyHistogram::Record are no-ops (one relaxed load + branch). Spans
  /// are likewise dropped. Gauge::Set still applies (it records state, not
  /// traffic).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // --- spans ---

  /// A fresh root context for a request entering the system.
  TraceContext StartTrace(int64_t deadline_micros = 0) const {
    return TraceContext{NextTraceId(), NextSpanId(), deadline_micros};
  }

  /// Appends to the span ring (dropping the oldest past `span_capacity`).
  void RecordSpan(SpanRecord span);
  void set_span_capacity(size_t capacity);

  const Clock* clock() const { return clock_; }

  /// The one export API: a consistent-enough view of every instrument and
  /// the buffered spans. Individual reads are relaxed; cross-instrument
  /// skew is bounded by the snapshot's own duration.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every instrument and clears the span ring (test/bench epochs;
  /// see Counter::Reset for the concurrency caveat).
  void ResetAll();

 private:
  struct Entry {
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry* GetEntry(InstrumentKind kind, const std::string& name, Labels labels)
      LIDI_EXCLUDES(mu_);

  const Clock* const clock_;
  std::atomic<bool> enabled_{true};

  // Leaf locks: nothing is ever acquired while either is held (instrument
  // values are atomics; the maps are touched only under these).
  mutable Mutex mu_{
      "obs.metrics.instruments"};  // guards map shape (not values)
  std::map<std::pair<std::string, Labels>, Entry> instruments_
      LIDI_GUARDED_BY(mu_);

  mutable Mutex span_mu_{"obs.metrics.spans"};
  std::deque<SpanRecord> spans_ LIDI_GUARDED_BY(span_mu_);
  size_t span_capacity_ LIDI_GUARDED_BY(span_mu_) = 1024;
};

/// RAII span: times a unit of work against the registry's clock and records
/// it on destruction. Null registry = no-op (observability is optional
/// everywhere). context() yields the child TraceContext to thread through
/// nested calls, inheriting the parent's trace id and deadline budget.
class ScopedSpan {
 public:
  ScopedSpan(MetricsRegistry* registry, std::string name,
             const TraceContext* parent = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext& context() { return context_; }
  void set_outcome(Code code) { record_.outcome = code; }
  void set_outcome(const Status& status) { record_.outcome = status.code(); }
  void set_peer(std::string peer) { record_.peer = std::move(peer); }
  void add_bytes_sent(int64_t n) { record_.bytes_sent += n; }
  void add_bytes_received(int64_t n) { record_.bytes_received += n; }

 private:
  MetricsRegistry* const registry_;
  TraceContext context_;
  SpanRecord record_;
};

}  // namespace lidi::obs

#endif  // LIDI_OBS_METRICS_H_
