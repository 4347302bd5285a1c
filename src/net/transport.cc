#include "net/transport.h"

#include <algorithm>
#include <utility>

namespace lidi::net {

namespace {
thread_local Address t_caller{};
}  // namespace

const Address& CallerIdentity() { return t_caller; }

namespace internal {

namespace {
thread_local obs::TraceContext t_ambient{};
}  // namespace

CallerScope::CallerScope(const Address& from) : saved_(t_caller) {
  t_caller = from;
}

CallerScope::~CallerScope() { t_caller = saved_; }

const obs::TraceContext& AmbientTrace() { return t_ambient; }

AmbientTraceScope::AmbientTraceScope(const obs::TraceContext& ctx)
    : saved_(t_ambient) {
  t_ambient = ctx;
}

AmbientTraceScope::~AmbientTraceScope() { t_ambient = saved_; }

int64_t MinDeadline(int64_t a, int64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

CallSpan CallSpan::Begin(const CallOptions& options, const Address& to,
                         const std::string& method, size_t request_bytes,
                         int64_t now_micros) {
  const obs::TraceContext* parent =
      options.trace != nullptr
          ? options.trace
          : (t_ambient.trace_id != 0 ? &t_ambient : nullptr);

  CallSpan out;
  out.span.trace_id = parent != nullptr ? parent->trace_id : obs::NextTraceId();
  out.span.parent_span_id = parent != nullptr ? parent->span_id : 0;
  out.span.span_id = obs::NextSpanId();
  out.span.name = method;
  out.span.peer = to;
  out.span.start_micros = now_micros;
  out.span.bytes_sent = static_cast<int64_t>(request_bytes);
  out.deadline_micros =
      MinDeadline(options.deadline_micros,
                  parent != nullptr ? parent->deadline_micros : 0);
  return out;
}

void CallSpan::Finish(const Status& status, size_t response_bytes,
                      int64_t now_micros, obs::LatencyHistogram* latency,
                      obs::MetricsRegistry* metrics) {
  span.outcome = status.code();
  span.bytes_received = status.ok() ? static_cast<int64_t>(response_bytes) : 0;
  span.duration_micros = now_micros - span.start_micros;
  latency->Record(span.duration_micros);
  metrics->RecordSpan(std::move(span));
}

EndpointTable::EndpointTable(obs::MetricsRegistry* metrics, const Clock* clock,
                             int64_t max_dispatch_inflight)
    : clock_(clock), dispatch_limiter_(max_dispatch_inflight) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(clock_);
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
}

void EndpointTable::Register(const Address& addr, const std::string& method,
                             PayloadHandler handler) {
  MutexLock lock(&mu_);
  handlers_[addr][method] = std::move(handler);
}

void EndpointTable::Unregister(const Address& addr) {
  MutexLock lock(&mu_);
  handlers_.erase(addr);
}

void EndpointTable::Shutdown() { shutdown_.store(true); }

Status EndpointTable::ShutDownError() {
  return Status::Unavailable("transport shut down");
}

Status EndpointTable::DeadlineError(const Address& to) {
  return Status::Timeout("deadline budget exhausted calling " + to);
}

Status EndpointTable::NoEndpointError(const Address& to) {
  return Status::NotFound("no endpoint: " + to);
}

EndpointTable::Instruments* EndpointTable::InstrumentsLocked(
    const Address& addr) {
  auto it = stats_.find(addr);
  if (it != stats_.end()) return &it->second;
  Instruments inst;
  const obs::Labels labels{{"endpoint", addr}};
  inst.calls_received = metrics_->GetCounter("net.calls_received", labels);
  inst.calls_sent = metrics_->GetCounter("net.calls_sent", labels);
  inst.bytes_received = metrics_->GetCounter("net.bytes_received", labels);
  inst.bytes_sent = metrics_->GetCounter("net.bytes_sent", labels);
  inst.dispatch_shed = metrics_->GetCounter("net.dispatch.shed", labels);
  return &stats_.emplace(addr, inst).first->second;
}

Status EndpointTable::BeginCall(const Address& from, const std::string& method,
                                size_t request_bytes,
                                obs::LatencyHistogram** latency) {
  MutexLock lock(&mu_);
  auto [it, inserted] = method_latency_.try_emplace(method, nullptr);
  if (inserted) {
    it->second =
        metrics_->GetHistogram("net.call_micros", {{"method", method}});
  }
  *latency = it->second;
  // Shutdown is checked before any counter moves.
  if (shutdown_.load()) return ShutDownError();
  total_calls_.fetch_add(1, std::memory_order_relaxed);
  Instruments* sender = InstrumentsLocked(from);
  sender->calls_sent->Increment();
  sender->bytes_sent->Add(static_cast<int64_t>(request_bytes));
  return Status::OK();
}

Status EndpointTable::CheckOpen() const {
  return shutdown_.load() ? ShutDownError() : Status::OK();
}

Status EndpointTable::CheckDeadline(int64_t deadline_micros,
                                    const Address& to) const {
  if (deadline_micros != 0 && clock_->NowMicros() > deadline_micros) {
    return DeadlineError(to);
  }
  return Status::OK();
}

Status EndpointTable::Admit(const Address& to) {
  if (dispatch_limiter_.TryEnter()) return Status::OK();
  // A shed request never touches the receiver's call counters.
  {
    MutexLock lock(&mu_);
    InstrumentsLocked(to)->dispatch_shed->Increment();
  }
  return Status::Overloaded("dispatch queue full at " + to);
}

Status EndpointTable::Lookup(const Address& to, const std::string& method,
                             size_t request_bytes, PayloadHandler* handler) {
  MutexLock lock(&mu_);
  auto node_it = handlers_.find(to);
  if (node_it == handlers_.end()) return NoEndpointError(to);
  auto method_it = node_it->second.find(method);
  if (method_it == node_it->second.end()) {
    return Status::NotFound("no method " + method + " at " + to);
  }
  *handler = method_it->second;
  Instruments* receiver = InstrumentsLocked(to);
  receiver->calls_received->Increment();
  receiver->bytes_received->Add(static_cast<int64_t>(request_bytes));
  return Status::OK();
}

EndpointStats EndpointTable::GetStats(const Address& addr) const {
  MutexLock lock(&mu_);
  auto it = stats_.find(addr);
  if (it == stats_.end()) return EndpointStats{};
  EndpointStats out;
  out.calls_received = it->second.calls_received->Value();
  out.calls_sent = it->second.calls_sent->Value();
  out.bytes_received = it->second.bytes_received->Value();
  out.bytes_sent = it->second.bytes_sent->Value();
  return out;
}

void EndpointTable::ResetStats() {
  MutexLock lock(&mu_);
  for (auto& [addr, inst] : stats_) {
    inst.calls_received->Reset();
    inst.calls_sent->Reset();
    inst.bytes_received->Reset();
    inst.bytes_sent->Reset();
  }
  total_calls_ = 0;
}

}  // namespace internal

void Transport::Register(const Address& addr, const std::string& method,
                         Handler handler) {
  RegisterPayload(addr, method,
                  [handler = std::move(handler)](Slice request)
                      -> Result<PinnedSlice> {
                    auto owned = handler(request);
                    if (!owned.ok()) return owned.status();
                    return PinnedSlice::Own(std::move(owned.value()));
                  });
}

Result<std::string> Transport::Call(const Address& from, const Address& to,
                                    const std::string& method, Slice request,
                                    const CallOptions& options) {
  auto response = CallPayload(from, to, method, request, options);
  if (!response.ok()) return response.status();
  return response.value().ToString();  // owned-string caller: one copy
}

}  // namespace lidi::net
