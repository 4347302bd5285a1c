#ifndef LIDI_PERFBENCH_WORKLOADS_H_
#define LIDI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace lidi::perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Operations in the timed phase; 0 = the workload's default.
  int64_t ops = 0;
  /// Null in the untraced run. When set, the workload wraps its transport
  /// and filesystem in the tracing decorators and opens API spans.
  SpanRecorder* recorder = nullptr;
  /// False runs with the transport's MetricsRegistry disabled.
  bool obs_enabled = true;
};

/// What one timed phase produced. Latencies are per operation type; the
/// counts feed the per-layer table.
struct RunResult {
  std::vector<double> read_us;
  std::vector<double> write_us;
  int64_t attempted = 0;  // operations the workload tried
  int64_t completed = 0;  // operations that finished (the ops_s numerator)
  int64_t failed = 0;     // failed operations plus failed checks
  std::vector<std::string> failures;  // the first few, for the log

  // Per-layer counts, from the workload and registry deltas.
  int64_t messages = 0;  // activity: messages delivered
  int64_t polls = 0;     // activity: Poll calls, empty ones included
  int64_t commits = 0;   // capture: commits acknowledged
  int64_t pulls = 0;     // capture: DatabusClient::PollOnce calls
  int64_t events = 0;    // capture: events delivered
  double user_bytes = 0;  // payload bytes the workload asked to persist
  int64_t read_repairs = 0;
  int64_t fetch_bytes_copied = 0;
  int64_t piggybacked = 0;
  int64_t compactions = 0;
  double storage_total_bytes = 0;
  double storage_live_bytes = 0;

  void Fail(const std::string& what);
};

/// One benchmark workload: a stack of the paper's systems driven by one
/// closed-loop client thread.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Starts the stack and preloads it (timed as setup).
  virtual void Setup() = 0;
  /// The timed phase: a fixed number of operations.
  virtual void Run(RunResult* result) = 0;
  /// End-of-run correctness checks.
  virtual void Check(RunResult* result) = 0;

  /// "tcp" or "sim", and where the workload's files live.
  virtual const char* transport() const = 0;
  virtual const char* data_dir() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config);

/// The per-layer table, every metric present; a layer the workload does not
/// exercise reads 0.
std::map<std::string, double> LayerMetrics(const TraceView& trace,
                                           const RunResult& result);

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);

}  // namespace lidi::perfbench

#endif  // LIDI_PERFBENCH_WORKLOADS_H_
