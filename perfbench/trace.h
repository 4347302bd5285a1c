#ifndef LIDI_PERFBENCH_TRACE_H_
#define LIDI_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "io/file.h"
#include "net/transport.h"

namespace lidi::perfbench {

/// One timed interval of the traced run. Spans caused by one benchmark
/// operation share `trace` (the id of the operation's root span).
struct Span {
  int32_t name = 0;  // index into SpanRecorder::names()
  int64_t id = 0;    // 1-based position in the recorder; 0 = none
  int64_t parent = 0;
  int64_t trace = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Payload bytes the span moved: request plus response for RPC spans,
  /// bytes accepted for appends, 0 elsewhere.
  int64_t bytes = 0;
};

/// In-memory span store. Spans are appended under one mutex (handlers run
/// on transport worker threads) and written out once, after the run.
class SpanRecorder {
 public:
  int32_t Intern(const std::string& name);

  /// Opens a span under `parent` (0 = a new root) and returns its id.
  int64_t Begin(int32_t name, int64_t parent);
  void End(int64_t id, int64_t bytes);

  /// Drops every span; call only while none is open (between operations).
  void Clear();

  std::vector<Span> spans() const;
  std::vector<std::string> names() const;

  /// One tab-separated line per span: id, parent, trace, name, start and
  /// end in ns, bytes.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable Mutex mu_{"perfbench.spans"};
  std::vector<Span> spans_ LIDI_GUARDED_BY(mu_);
  std::vector<std::string> names_ LIDI_GUARDED_BY(mu_);
  std::unordered_map<std::string, int32_t> ids_ LIDI_GUARDED_BY(mu_);
};

/// RAII span on the calling thread. While it is open it is the thread's
/// current span, so spans opened underneath nest under it. A null recorder
/// makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, int32_t name);
  /// Opens the span under an explicit parent instead of the thread's
  /// current span (a handler span under the call that caused it).
  ScopedSpan(SpanRecorder* recorder, int32_t name, int64_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void set_bytes(int64_t bytes) { bytes_ = bytes; }

 private:
  SpanRecorder* const recorder_;
  int64_t id_ = 0;
  int64_t saved_current_ = 0;
  int64_t bytes_ = 0;
};

/// net::Transport decorator: records a "net.call:<method>" span around
/// every CallPayload and a "net.handler:<method>" span around every handler
/// registered through it. A handler span's parent is the pending call with
/// the same (caller, destination, method), oldest first.
class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport* inner, SpanRecorder* recorder);

  obs::MetricsRegistry* metrics() const override { return inner_->metrics(); }
  void RegisterPayload(const net::Address& addr, const std::string& method,
                       net::PayloadHandler handler) override;
  void Unregister(const net::Address& addr) override;
  using Transport::CallPayload;
  Result<PinnedSlice> CallPayload(const net::Address& from,
                                  const net::Address& to,
                                  const std::string& method, Slice request,
                                  const net::CallOptions& options) override;
  void Shutdown() override;
  net::EndpointStats GetStats(const net::Address& addr) const override;
  void ResetStats() override;
  int64_t total_calls() const override;

 private:
  using CallKey = std::tuple<net::Address, net::Address, std::string>;

  int64_t TakePending(const CallKey& key);

  net::Transport* const inner_;
  SpanRecorder* const recorder_;
  Mutex mu_{"perfbench.tracing_transport"};
  std::map<CallKey, std::vector<int64_t>> pending_ LIDI_GUARDED_BY(mu_);
};

/// io::Fs decorator: records an "io.append" span around every
/// WritableFile::Append and an "io.sync" span around every Sync. Other
/// calls pass through untimed.
class TracingFs final : public io::Fs {
 public:
  TracingFs(io::Fs* inner, SpanRecorder* recorder);

  Result<std::unique_ptr<io::WritableFile>> OpenAppend(
      const std::string& path) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, int64_t size) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& path) override;
  Result<int64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;

 private:
  io::Fs* const inner_;
  SpanRecorder* const recorder_;
  const int32_t append_name_;
  const int32_t sync_name_;
};

/// Read-only queries over a finished trace. Every query selects spans by
/// name prefix ("net.call:" is every RPC, "net.call:v.get" one method).
class TraceView {
 public:
  TraceView(std::vector<Span> spans, std::vector<std::string> names);

  /// Durations in µs.
  std::vector<double> Durations(const std::string& prefix) const;
  /// Each span's duration minus the part of it covered by its children
  /// starting with `child_prefix`, in µs.
  std::vector<double> SelfTimes(const std::string& prefix,
                                const std::string& child_prefix) const;
  /// Mean number of children starting with `child_prefix` per span; 0 when
  /// there is no span.
  double ChildrenPer(const std::string& prefix,
                     const std::string& child_prefix) const;
  int64_t Count(const std::string& prefix) const;
  /// Sum of the bytes the spans moved.
  int64_t Bytes(const std::string& prefix) const;

 private:
  std::vector<const Span*> Named(const std::string& prefix) const;

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::vector<int64_t>> children_;  // by span id - 1
};

}  // namespace lidi::perfbench

#endif  // LIDI_PERFBENCH_TRACE_H_
