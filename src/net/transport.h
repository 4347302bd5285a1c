#ifndef LIDI_NET_TRANSPORT_H_
#define LIDI_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/overload.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace lidi::net {

/// Node address, e.g. "voldemort-node-3" or "relay-1". All lidi tiers
/// communicate through Transport::Call rather than direct object references
/// so that tests can inject the transient failures the paper calls prevalent
/// in production datacenters (Section II.A, [FLP+10]). Numbered tier nodes
/// build theirs through the typed factory in net/address.h so both backends
/// resolve them uniformly.
using Address = std::string;

/// A per-method RPC handler: takes the serialized request, produces the
/// serialized response or an error.
using Handler = std::function<Result<std::string>(Slice request)>;

/// A zero-copy RPC handler: the response is a pinned view into storage the
/// handler owns (e.g. a log segment buffer), so serving it moves no payload
/// bytes in-process. The transport analogue of the paper's sendfile path
/// (V.B): the broker hands the "socket" its file-channel bytes directly.
/// This is the primary handler kind; string Handlers are adapted onto it.
using PayloadHandler = std::function<Result<PinnedSlice>(Slice request)>;

/// Per-call options: the caller's trace context (the RPC is recorded as a
/// span under it, and nested calls the handler places inherit it) and an
/// absolute deadline in the transport clock's microseconds (0 = none; the
/// tighter of this and the trace's own deadline budget wins).
struct CallOptions {
  obs::TraceContext* trace = nullptr;
  int64_t deadline_micros = 0;
};

/// Counters describing traffic through one endpoint. The Databus fan-out
/// bench (E9) uses the source database's counters to show consumer count
/// does not increase source load.
///
/// This struct is a *view*: the counters live in the transport's
/// obs::MetricsRegistry ("net.calls_sent{endpoint=...}" et al.) and
/// internal::EndpointTable::GetStats, the one implementation both backends
/// forward to, materializes them, so the same numbers appear in
/// MetricsRegistry::Snapshot() and here.
struct EndpointStats {
  int64_t calls_received = 0;
  int64_t calls_sent = 0;
  int64_t bytes_received = 0;
  int64_t bytes_sent = 0;
};

/// The transport abstraction every tier is wired against (DESIGN.md §10).
///
/// Two backends implement it behind one caller-facing API:
///  - net::Network (net/network.h): the deterministic in-process simulated
///    transport — handlers run synchronously in the caller's thread, faults
///    are injected from a seeded RNG, and the sim harness replays byte-
///    identical traces from a seed.
///  - net::TcpTransport (net/tcp_transport.h): a real epoll reactor over
///    nonblocking localhost TCP sockets with a length-prefixed framing
///    codec, per-peer connection pooling, and a handler worker pool.
///
/// API shape: the payload-view path (CallPayload/RegisterPayload, moving
/// PinnedSlices) is the primary surface and the only virtual dispatch
/// path; the owned-string path (Call/Register) is a thin non-virtual
/// wrapper over it. Handler table, stats, shutdown, dispatch limit and the
/// error messages below live once, in internal::EndpointTable; a backend
/// adds only how a request travels.
///
/// Error contract, identical on both Call paths and both backends:
///  - Unavailable — destination down/unreachable/disconnected, or the
///    transport has been Shutdown();
///  - Timeout    — the call's deadline budget is exhausted (before or
///    during the call);
///  - NotFound   — no endpoint or no such method at the endpoint;
///  - Overloaded — the backend's bounded dispatch queue shed the request
///    before any handler work (see each backend's dispatch-limit option);
///  - otherwise the handler's own result.
class Transport {
 public:
  virtual ~Transport() = default;

  /// The registry RPC metrics and spans land in. Components default to this
  /// registry for their own instruments, unifying export.
  virtual obs::MetricsRegistry* metrics() const = 0;

  /// Registers a zero-copy handler for (address, method). Re-registering
  /// replaces (either kind — there is one handler table).
  virtual void RegisterPayload(const Address& addr, const std::string& method,
                               PayloadHandler handler) = 0;

  /// Removes an endpoint entirely (all its methods).
  virtual void Unregister(const Address& addr) = 0;

  /// Invokes `method` on `to`; the response payload is pinned, not copied
  /// in-process (over TCP it degrades to one deserialize copy per side).
  virtual Result<PinnedSlice> CallPayload(const Address& from,
                                          const Address& to,
                                          const std::string& method,
                                          Slice request,
                                          const CallOptions& options) = 0;

  /// Stops dispatch: every subsequent Call/CallPayload (string or payload
  /// route, either backend) fails Unavailable (EndpointTable::ShutDownError).
  /// Idempotent. Handlers stay registered; there is no Restart.
  virtual void Shutdown() = 0;

  virtual EndpointStats GetStats(const Address& addr) const = 0;
  virtual void ResetStats() = 0;

  /// Total number of calls placed since construction/ResetStats.
  virtual int64_t total_calls() const = 0;

  // --- non-virtual convenience surface (one dispatch path underneath) ---

  /// Registers an owned-string handler: adapted onto the payload table by
  /// moving the handler's string into a pinned buffer (no byte copy).
  void Register(const Address& addr, const std::string& method,
                Handler handler);

  /// Owned-string call: CallPayload plus one materializing copy of the
  /// response bytes. Callers on a hot path should use CallPayload.
  Result<std::string> Call(const Address& from, const Address& to,
                           const std::string& method, Slice request,
                           const CallOptions& options);
  Result<std::string> Call(const Address& from, const Address& to,
                           const std::string& method, Slice request) {
    return Call(from, to, method, request, CallOptions{});
  }

  Result<PinnedSlice> CallPayload(const Address& from, const Address& to,
                                  const std::string& method, Slice request) {
    return CallPayload(from, to, method, request, CallOptions{});
  }
};

/// Identity of the caller whose request the current thread is dispatching:
/// the `from` address of the innermost in-flight handler invocation on this
/// thread (carried by the frame header over TCP, the call arguments in-sim),
/// or "" outside a handler. Serving tiers use this as the client key for
/// per-client quotas (common/overload.h) — identical on both backends, so
/// quota decisions are backend-independent.
const Address& CallerIdentity();

namespace internal {

/// RAII swap of the ambient caller identity around a handler invocation
/// (both backends; same carrier pattern as AmbientTraceScope below).
class CallerScope {
 public:
  explicit CallerScope(const Address& from);
  ~CallerScope();

  CallerScope(const CallerScope&) = delete;
  CallerScope& operator=(const CallerScope&) = delete;

 private:
  Address saved_;
};

/// Ambient trace context for nested calls: handlers run synchronously in
/// the dispatching thread (the caller's thread in-sim, a worker thread over
/// TCP), so a thread-local is exactly the right carrier. While a handler
/// runs, the ambient context is the span of the call that invoked it; any
/// call the handler places without explicit CallOptions::trace attaches
/// there (and inherits the deadline budget). Zero trace_id = none.
const obs::TraceContext& AmbientTrace();

/// RAII swap of the ambient context around a handler invocation.
class AmbientTraceScope {
 public:
  explicit AmbientTraceScope(const obs::TraceContext& ctx);
  ~AmbientTraceScope();

  AmbientTraceScope(const AmbientTraceScope&) = delete;
  AmbientTraceScope& operator=(const AmbientTraceScope&) = delete;

 private:
  obs::TraceContext saved_;
};

/// The tighter of two absolute deadlines (0 = none).
int64_t MinDeadline(int64_t a, int64_t b);

/// Span setup shared by both backends: resolves the parent (explicit trace
/// option, else the ambient context of the enclosing handler, else a fresh
/// root trace), stamps ids/name/peer/start, and computes the effective
/// deadline (the tighter of the option's and the parent's budget).
struct CallSpan {
  obs::SpanRecord span;
  int64_t deadline_micros = 0;

  static CallSpan Begin(const CallOptions& options, const Address& to,
                        const std::string& method, size_t request_bytes,
                        int64_t now_micros);

  /// Child context nested calls placed by the handler should inherit.
  obs::TraceContext ChildContext() const {
    return obs::TraceContext{span.trace_id, span.span_id, deadline_micros};
  }

  /// Records the call's duration into `latency`, stamps outcome/bytes/
  /// duration and records the span.
  void Finish(const Status& status, size_t response_bytes, int64_t now_micros,
              obs::LatencyHistogram* latency, obs::MetricsRegistry* metrics);
};

/// Everything the two backends share about endpoints (DESIGN.md §10.1): the
/// metrics registry, the handler table, the shutdown flag, per-endpoint
/// counters and total_calls, the per-method latency cache, the bounded
/// dispatch limiter, and the one builder of each error-contract message. A
/// backend adds only how a request travels (fault injection and virtual
/// time in-sim, sockets over TCP), so both count and fail alike by
/// construction. Thread-safe.
class EndpointTable {
 public:
  /// `metrics` null = a table-owned registry on `clock` (never null).
  /// `max_dispatch_inflight` bounds admitted dispatches; 0 = unbounded.
  EndpointTable(obs::MetricsRegistry* metrics, const Clock* clock,
                int64_t max_dispatch_inflight);

  EndpointTable(const EndpointTable&) = delete;
  EndpointTable& operator=(const EndpointTable&) = delete;

  obs::MetricsRegistry* metrics() const { return metrics_; }

  void Register(const Address& addr, const std::string& method,
                PayloadHandler handler);
  void Unregister(const Address& addr);
  void Shutdown();

  /// The caller side's first step: resolves the method's histogram
  /// net.call_micros{method} into *latency (recorded whatever the outcome),
  /// fails after Shutdown, else counts the call and its bytes against
  /// `from`.
  Status BeginCall(const Address& from, const std::string& method,
                   size_t request_bytes, obs::LatencyHistogram** latency);

  /// Fails after Shutdown.
  Status CheckOpen() const;

  /// Fails Timeout once `deadline_micros` (0 = none) has passed.
  Status CheckDeadline(int64_t deadline_micros, const Address& to) const;

  /// Takes a dispatch slot, or counts net.dispatch.shed{endpoint=<to>} and
  /// fails Overloaded, before any handler work. Release returns the slot.
  Status Admit(const Address& to);
  void Release() { dispatch_limiter_.Exit(); }

  /// The receiving side: copies the handler for (to, method) into *handler
  /// and counts the call and its bytes against `to`, or fails NotFound.
  Status Lookup(const Address& to, const std::string& method,
                size_t request_bytes, PayloadHandler* handler);

  EndpointStats GetStats(const Address& addr) const;
  void ResetStats();
  int64_t total_calls() const { return total_calls_.load(); }

  static Status ShutDownError();
  static Status DeadlineError(const Address& to);
  static Status NoEndpointError(const Address& to);

 private:
  struct Instruments {
    obs::Counter* calls_received = nullptr;
    obs::Counter* calls_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* dispatch_shed = nullptr;
  };

  Instruments* InstrumentsLocked(const Address& addr) LIDI_REQUIRES(mu_);

  obs::MetricsRegistry* metrics_;  // never null
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  const Clock* const clock_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> total_calls_{0};
  InflightLimiter dispatch_limiter_;  // lock-free

  /// Never held across a handler call; registry instruments are created
  /// under it (it orders before the obs locks).
  mutable Mutex mu_{"net.table", lockrank::kNetTable};
  std::map<Address, std::map<std::string, PayloadHandler>> handlers_
      LIDI_GUARDED_BY(mu_);
  std::map<Address, Instruments> stats_ LIDI_GUARDED_BY(mu_);
  std::map<std::string, obs::LatencyHistogram*> method_latency_
      LIDI_GUARDED_BY(mu_);  // cache
};

}  // namespace internal

}  // namespace lidi::net

#endif  // LIDI_NET_TRANSPORT_H_
