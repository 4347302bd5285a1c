#include "databus/bootstrap.h"

#include <algorithm>

#include "common/coding.h"

namespace lidi::databus {

BootstrapServer::BootstrapServer(std::string name, net::Address relay,
                                 net::Transport* network)
    : name_(std::move(name)),
      relay_(std::move(relay)),
      network_(network),
      metrics_(network->metrics()),
      events_fetched_(metrics_->GetCounter("databus.bootstrap.events_fetched",
                                           {{"server", name_}})),
      rows_applied_(metrics_->GetCounter("databus.bootstrap.rows_applied",
                                         {{"server", name_}})) {
  network_->Register(name_, "bootstrap.delta", [this](Slice req) {
    int64_t since_scn, max_events;
    Filter filter;
    Status s = DecodeReadRequest(req, &since_scn, &max_events, &filter);
    if (!s.ok()) return Result<std::string>(s);
    auto events = ConsolidatedDelta(since_scn, filter);
    if (!events.ok()) return Result<std::string>(events.status());
    std::string out;
    EncodeEventList(events.value(), &out);
    return Result<std::string>(std::move(out));
  });
  network_->Register(name_, "bootstrap.snapshot", [this](Slice req) {
    Slice input = req;
    auto filter = Filter::DecodeFrom(&input);
    if (!filter.ok()) return Result<std::string>(filter.status());
    auto snapshot = ConsistentSnapshot(filter.value());
    if (!snapshot.ok()) return Result<std::string>(snapshot.status());
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(snapshot.value().snapshot_scn));
    EncodeEventList(snapshot.value().rows, &out);
    return Result<std::string>(std::move(out));
  });
}

BootstrapServer::~BootstrapServer() { network_->Unregister(name_); }

Result<int64_t> BootstrapServer::PollRelayOnce() {
  obs::ScopedSpan span(metrics_, "databus.bootstrap.poll");
  span.set_peer(relay_);
  int64_t since;
  {
    MutexLock lock(&mu_);
    since = log_fetched_scn_;
  }
  std::string request;
  EncodeReadRequest(since, /*max_events=*/1 << 16, Filter{}, &request);
  auto reply = network_->CallPayload(name_, relay_, "databus.read", request,
                                     net::CallOptions{&span.context()});
  if (!reply.ok()) {
    span.set_outcome(reply.status());
    return reply.status();
  }
  auto events = DecodeEventList(reply.value().slice());
  if (!events.ok()) {
    span.set_outcome(events.status());
    return events.status();
  }

  MutexLock lock(&mu_);
  for (Event& event : events.value()) {
    log_fetched_scn_ = std::max(log_fetched_scn_, event.scn);
    log_.push_back(std::move(event));
  }
  events_fetched_->Add(static_cast<int64_t>(events.value().size()));
  return static_cast<int64_t>(events.value().size());
}

int64_t BootstrapServer::ApplyLogOnce(int64_t max_rows) {
  MutexLock lock(&mu_);
  int64_t applied = 0;
  while (!log_.empty() && applied < max_rows) {
    Event& event = log_.front();
    applied_scn_ = std::max(applied_scn_, event.scn);
    snapshot_[{event.source, event.key}] = std::move(event);
    log_.pop_front();
    ++applied;
  }
  rows_applied_->Add(applied);
  return applied;
}

Result<std::vector<Event>> BootstrapServer::ConsolidatedDelta(
    int64_t since_scn, const Filter& filter) const {
  MutexLock lock(&mu_);
  // Serve from snapshot storage (last event per key), then overlay any log
  // tail the applier has not folded yet — the replay that guarantees
  // consistency while the (long) snapshot scan runs.
  std::map<std::pair<std::string, std::string>, Event> result;
  for (const auto& [key, event] : snapshot_) {
    if (event.scn > since_scn && filter.Matches(event)) result[key] = event;
  }
  for (const Event& event : log_) {
    if (event.scn > since_scn && filter.Matches(event)) {
      result[{event.source, event.key}] = event;
    }
  }
  std::vector<Event> out;
  out.reserve(result.size());
  for (auto& [key, event] : result) out.push_back(std::move(event));
  // Deliver in scn order so consumer checkpoints advance monotonically.
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.scn < b.scn; });
  return out;
}

Result<SnapshotResult> BootstrapServer::ConsistentSnapshot(
    const Filter& filter) const {
  MutexLock lock(&mu_);
  SnapshotResult result;
  // Live rows: snapshot entries overlaid with the unapplied log tail,
  // dropping deletes.
  std::map<std::pair<std::string, std::string>, Event> live = snapshot_;
  int64_t max_scn = applied_scn_;
  for (const Event& event : log_) {
    live[{event.source, event.key}] = event;
    max_scn = std::max(max_scn, event.scn);
  }
  for (auto& [key, event] : live) {
    if (event.op == Event::Op::kDelete) continue;
    if (!filter.Matches(event)) continue;
    result.rows.push_back(std::move(event));
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const Event& a, const Event& b) { return a.scn < b.scn; });
  result.snapshot_scn = max_scn;
  return result;
}

int64_t BootstrapServer::log_size() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(log_.size());
}

int64_t BootstrapServer::snapshot_keys() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(snapshot_.size());
}

int64_t BootstrapServer::applied_scn() const {
  MutexLock lock(&mu_);
  return applied_scn_;
}

}  // namespace lidi::databus
