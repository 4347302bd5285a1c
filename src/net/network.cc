#include "net/network.h"

#include <utility>

namespace lidi::net {

Network::Network(uint64_t fault_seed, obs::MetricsRegistry* metrics,
                 const Clock* clock, int64_t max_dispatch_inflight)
    : clock_(clock != nullptr ? clock : SystemClock::Default()),
      table_(metrics, clock_, max_dispatch_inflight),
      rng_(fault_seed) {}

Status Network::Route(const Address& from, const Address& to,
                      int64_t deadline_micros) {
  MutexLock lock(&mu_);
  // Virtual time: the message in flight is what moves the clock. Stepping
  // before the deadline check means a delay burst can time calls out, which
  // is exactly the failure mode the burst models.
  if (step_clock_ != nullptr) {
    int64_t step = step_micros_;
    if (delay_burst_micros_ > 0) {
      step += static_cast<int64_t>(
          rng_.Uniform(static_cast<uint64_t>(delay_burst_micros_) + 1));
    }
    step_clock_->AdvanceMicros(step);
  }

  Status s = table_.CheckDeadline(deadline_micros, to);
  if (!s.ok()) return s;
  if (down_.count(to) > 0) {
    return Status::Unavailable("node down: " + to);
  }
  if (partitioned_) {
    const bool from_a = partition_a_.count(from) > 0;
    const bool to_a = partition_a_.count(to) > 0;
    if (from_a != to_a) {
      return Status::Unavailable("network partition between " + from + " and " +
                                 to);
    }
  }
  if (drop_probability_ > 0 && rng_.Bernoulli(drop_probability_)) {
    return Status::Timeout("message dropped by fault injector");
  }
  return Status::OK();
}

Result<PinnedSlice> Network::CallPayload(const Address& from,
                                         const Address& to,
                                         const std::string& method,
                                         Slice request,
                                         const CallOptions& options) {
  internal::CallSpan call = internal::CallSpan::Begin(
      options, to, method, request.size(), clock_->NowMicros());

  obs::LatencyHistogram* latency = nullptr;
  Status s = table_.BeginCall(from, method, request.size(), &latency);
  if (s.ok()) s = Route(from, to, call.deadline_micros);
  // Bounded dispatch: admission is checked before endpoint lookup, the same
  // shed point as the TCP backend's reactor.
  if (s.ok()) s = table_.Admit(to);
  const bool admitted = s.ok();
  PayloadHandler handler;
  if (s.ok()) s = table_.Lookup(to, method, request.size(), &handler);

  PinnedSlice response;
  if (s.ok()) {
    // Invoke outside every lock so handlers can place nested calls; those
    // calls pick up this span as their parent via the ambient context.
    internal::AmbientTraceScope ambient(call.ChildContext());
    internal::CallerScope caller(from);
    auto pinned = handler(request);
    if (pinned.ok()) {
      response = std::move(pinned.value());
    } else {
      s = pinned.status();
    }
  }
  // The admission slot covers the handler's whole run (nested calls and
  // all) — that is what makes the in-flight count a queue-depth signal.
  if (admitted) table_.Release();

  call.Finish(s, response.size(), clock_->NowMicros(), latency, metrics());
  if (!s.ok()) return s;
  return response;
}

void Network::SetNodeDown(const Address& addr) {
  MutexLock lock(&mu_);
  down_.insert(addr);
}

void Network::SetNodeUp(const Address& addr) {
  MutexLock lock(&mu_);
  down_.erase(addr);
}

bool Network::IsNodeUp(const Address& addr) const {
  MutexLock lock(&mu_);
  return down_.count(addr) == 0;
}

void Network::SetDropProbability(double p) {
  MutexLock lock(&mu_);
  drop_probability_ = p;
}

void Network::PartitionOff(const std::set<Address>& side_a) {
  MutexLock lock(&mu_);
  partition_a_ = side_a;
  partitioned_ = true;
}

void Network::Heal() {
  std::vector<std::function<void()>> listeners;
  {
    MutexLock lock(&mu_);
    partitioned_ = false;
    partition_a_.clear();
    listeners = heal_listeners_;
  }
  // Outside the lock: listeners typically place calls (recovery probes).
  for (const auto& listener : listeners) listener();
}

void Network::AddHealListener(std::function<void()> listener) {
  MutexLock lock(&mu_);
  heal_listeners_.push_back(std::move(listener));
}

void Network::ClearHealListeners() {
  MutexLock lock(&mu_);
  heal_listeners_.clear();
}

void Network::EnableVirtualTimeStepping(ManualClock* clock,
                                        int64_t base_step_micros) {
  MutexLock lock(&mu_);
  step_clock_ = clock;
  step_micros_ = base_step_micros;
}

void Network::SetDelayBurst(int64_t extra_micros) {
  MutexLock lock(&mu_);
  delay_burst_micros_ = extra_micros;
}

}  // namespace lidi::net
