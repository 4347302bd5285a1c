#include "databus/relay.h"

#include <algorithm>

#include "common/coding.h"

namespace lidi::databus {

namespace {

std::vector<Event> TransactionToEvents(
    const sqlstore::CommittedTransaction& txn) {
  std::vector<Event> events;
  events.reserve(txn.changes.size());
  for (size_t i = 0; i < txn.changes.size(); ++i) {
    const sqlstore::Change& change = txn.changes[i];
    Event event;
    event.scn = txn.scn;
    event.source = change.table;
    event.key = change.primary_key;
    event.op = change.op == sqlstore::Change::Op::kDelete ? Event::Op::kDelete
                                                          : Event::Op::kUpsert;
    event.partition = change.partition;
    event.end_of_txn = i + 1 == txn.changes.size();
    if (change.op != sqlstore::Change::Op::kDelete) {
      sqlstore::EncodeRow(change.row, &event.payload);
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

void EncodeReadRequest(int64_t since_scn, int64_t max_events,
                       const Filter& filter, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(since_scn));
  PutVarint64(out, static_cast<uint64_t>(max_events));
  filter.EncodeTo(out);
}

Status DecodeReadRequest(Slice input, int64_t* since_scn, int64_t* max_events,
                         Filter* filter) {
  uint64_t scn, max;
  if (!GetVarint64(&input, &scn) || !GetVarint64(&input, &max)) {
    return Status::Corruption("truncated read request");
  }
  auto f = Filter::DecodeFrom(&input);
  if (!f.ok()) return f.status();
  *since_scn = static_cast<int64_t>(scn);
  *max_events = static_cast<int64_t>(max);
  *filter = std::move(f.value());
  return Status::OK();
}

Relay::Relay(std::string relay_name, const sqlstore::Database* source,
             net::Transport* network, RelayOptions options)
    : Relay(std::move(relay_name), source, net::Address(), network, options) {}

Relay::Relay(std::string relay_name, net::Address upstream_relay,
             net::Transport* network, RelayOptions options)
    : Relay(std::move(relay_name), nullptr, std::move(upstream_relay), network,
            options) {}

Relay::Relay(std::string relay_name, const sqlstore::Database* source,
             net::Address upstream, net::Transport* network,
             RelayOptions options)
    : name_(std::move(relay_name)),
      source_(source),
      upstream_(std::move(upstream)),
      network_(network),
      options_(options),
      metrics_(network->metrics()),
      events_ingested_(metrics_->GetCounter("databus.relay.events_ingested",
                                            {{"relay", name_}})),
      events_served_(metrics_->GetCounter("databus.relay.events_served",
                                          {{"relay", name_}})) {
  network_->Register(name_, "databus.read", [this](Slice req) {
    int64_t since_scn, max_events;
    Filter filter;
    Status s = DecodeReadRequest(req, &since_scn, &max_events, &filter);
    if (!s.ok()) return Result<std::string>(s);
    auto events = ReadEvents(since_scn, max_events, filter);
    if (!events.ok()) return Result<std::string>(events.status());
    std::string out;
    EncodeEventList(events.value(), &out);
    return Result<std::string>(std::move(out));
  });
}

Relay::~Relay() { network_->Unregister(name_); }

Result<int64_t> Relay::PollOnce() {
  obs::ScopedSpan span(metrics_, "databus.relay.poll");
  int64_t since;
  int64_t poll_batch;
  {
    MutexLock lock(&mu_);
    since = last_pulled_scn_;
    poll_batch = options_.poll_batch_transactions;
  }

  std::vector<Event> incoming;
  if (source_ != nullptr) {
    const auto txns = source_->binlog().ReadAfter(since, poll_batch);
    for (const auto& txn : txns) {
      auto events = TransactionToEvents(txn);
      incoming.insert(incoming.end(), events.begin(), events.end());
    }
  } else if (!upstream_.empty()) {
    span.set_peer(upstream_);
    std::string request;
    EncodeReadRequest(since, poll_batch * 4, Filter{}, &request);
    auto r = network_->Call(name_, upstream_, "databus.read", request,
                            net::CallOptions{&span.context()});
    if (!r.ok()) {
      span.set_outcome(r.status());
      return r.status();
    }
    auto events = DecodeEventList(r.value());
    if (!events.ok()) {
      span.set_outcome(events.status());
      return events.status();
    }
    incoming = std::move(events.value());
  }
  if (incoming.empty()) return int64_t{0};

  MutexLock lock(&mu_);
  const int64_t count = static_cast<int64_t>(incoming.size());
  AppendEventsLocked(std::move(incoming));
  events_ingested_->Add(count);
  return count;
}

void Relay::AppendEventsLocked(std::vector<Event> events) {
  for (Event& event : events) {
    last_pulled_scn_ = std::max(last_pulled_scn_, event.scn);
    buffer_.push_back(std::move(event));
  }
  // Circular buffer semantics: evict the oldest events beyond capacity.
  while (static_cast<int64_t>(buffer_.size()) >
         options_.buffer_capacity_events) {
    buffer_.pop_front();
  }
}

Result<std::vector<Event>> Relay::ReadEvents(int64_t since_scn,
                                             int64_t max_events,
                                             const Filter& filter) const {
  MutexLock lock(&mu_);
  if (!buffer_.empty() && since_scn + 1 < buffer_.front().scn) {
    // The requested range was evicted from the circular buffer; the client
    // must fall back to a bootstrap server (long look-back query).
    return Status::NotFound("scn " + std::to_string(since_scn) +
                            " evicted from relay buffer (min buffered scn " +
                            std::to_string(buffer_.front().scn) + ")");
  }
  std::vector<Event> out;
  // Binary search to the first event with scn > since_scn: the buffer is in
  // scn order (this is the relay's "index structure to efficiently serve
  // events from a given sequence number").
  auto it = std::lower_bound(
      buffer_.begin(), buffer_.end(), since_scn + 1,
      [](const Event& e, int64_t scn) { return e.scn < scn; });
  for (; it != buffer_.end() &&
         static_cast<int64_t>(out.size()) < max_events;
       ++it) {
    if (filter.Matches(*it)) out.push_back(*it);
  }
  events_served_->Add(static_cast<int64_t>(out.size()));
  return out;
}

void Relay::SetBufferCapacity(int64_t capacity_events) {
  MutexLock lock(&mu_);
  options_.buffer_capacity_events = capacity_events;
  options_.poll_batch_transactions =
      std::max<int64_t>(1, capacity_events / 2);
  while (static_cast<int64_t>(buffer_.size()) >
         options_.buffer_capacity_events) {
    buffer_.pop_front();
  }
}

int64_t Relay::min_buffered_scn() const {
  MutexLock lock(&mu_);
  return buffer_.empty() ? 0 : buffer_.front().scn;
}

int64_t Relay::max_buffered_scn() const {
  MutexLock lock(&mu_);
  return buffer_.empty() ? 0 : buffer_.back().scn;
}

int64_t Relay::buffered_events() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(buffer_.size());
}

}  // namespace lidi::databus
