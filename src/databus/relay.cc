#include "databus/relay.h"

#include <algorithm>
#include <limits>

#include "common/coding.h"

namespace lidi::databus {

namespace {

/// Appends one event per change of `txn`. Each payload is reserved to its
/// exact encoded size: the buffer keeps it for as long as the event stays
/// buffered, so growth slack would be paid per buffered event.
void AppendTransactionEvents(const sqlstore::CommittedTransaction& txn,
                             std::vector<Event>* events) {
  for (size_t i = 0; i < txn.changes.size(); ++i) {
    const sqlstore::Change& change = txn.changes[i];
    Event& event = events->emplace_back();
    event.scn = txn.scn;
    event.source = change.table;
    event.key = change.primary_key;
    event.op = change.op == sqlstore::Change::Op::kDelete ? Event::Op::kDelete
                                                          : Event::Op::kUpsert;
    event.partition = change.partition;
    event.end_of_txn = i + 1 == txn.changes.size();
    if (change.op != sqlstore::Change::Op::kDelete) {
      event.payload.reserve(sqlstore::EncodedRowSize(change.row));
      sqlstore::EncodeRow(change.row, &event.payload);
    }
  }
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
  // Both land in int64_t, and ReadEvents looks up since_scn + 1, so the
  // newest SCN a reader can name is one below the int64_t maximum.
  constexpr uint64_t kInt64Max = std::numeric_limits<int64_t>::max();
  if (scn >= kInt64Max) {
    return Status::Corruption("read request since_scn " + std::to_string(scn) +
                              " out of range");
  }
  if (max > kInt64Max) {
    return Status::Corruption("read request max_events " +
                              std::to_string(max) + " out of range");
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
      metrics_(network->metrics()),
      events_ingested_(metrics_->GetCounter("databus.relay.events_ingested",
                                            {{"relay", name_}})),
      events_served_(metrics_->GetCounter("databus.relay.events_served",
                                          {{"relay", name_}})),
      poll_batch_transactions_(options.poll_batch_transactions),
      buffer_(options.buffer_capacity_events) {
  network_->Register(name_, "databus.read", [this](Slice req) {
    int64_t since_scn, max_events;
    Filter filter;
    Status s = DecodeReadRequest(req, &since_scn, &max_events, &filter);
    if (!s.ok()) return Result<std::string>(s);
    // Encodes straight from the buffer; the lock keeps eviction off the
    // matched events until they are encoded.
    MutexLock lock(&mu_);
    std::vector<const Event*> matched;
    s = buffer_.Scan(since_scn, max_events, filter, &matched);
    if (!s.ok()) return Result<std::string>(s);
    events_served_->Add(static_cast<int64_t>(matched.size()));
    std::string out;
    PutVarint64(&out, matched.size());
    for (const Event* event : matched) EncodeEvent(*event, &out);
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
    since = buffer_.max_scn();
    poll_batch = poll_batch_transactions_;
  }

  std::vector<Event> incoming;
  if (source_ != nullptr) {
    // The logged transactions are read in place: ReadAfter lends pointers,
    // and the events are built with neither lock held.
    const auto txns = source_->binlog().ReadAfter(since, poll_batch);
    size_t changes = 0;
    for (const sqlstore::CommittedTransaction* txn : txns) {
      changes += txn->changes.size();
    }
    incoming.reserve(changes);
    for (const sqlstore::CommittedTransaction* txn : txns) {
      AppendTransactionEvents(*txn, &incoming);
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
  buffer_.Append(std::move(incoming));
  events_ingested_->Add(count);
  return count;
}

Result<std::vector<Event>> Relay::ReadEvents(int64_t since_scn,
                                             int64_t max_events,
                                             const Filter& filter) const {
  MutexLock lock(&mu_);
  auto events = buffer_.Read(since_scn, max_events, filter);
  if (events.ok()) {
    events_served_->Add(static_cast<int64_t>(events.value().size()));
  }
  return events;
}

void Relay::SetBufferCapacity(int64_t capacity_events) {
  MutexLock lock(&mu_);
  buffer_.SetCapacity(capacity_events);
  poll_batch_transactions_ = std::max<int64_t>(1, capacity_events / 2);
}

int64_t Relay::min_buffered_scn() const {
  MutexLock lock(&mu_);
  return buffer_.min_scn();
}

int64_t Relay::max_buffered_scn() const {
  MutexLock lock(&mu_);
  return buffer_.size() == 0 ? 0 : buffer_.max_scn();
}

int64_t Relay::buffered_events() const {
  MutexLock lock(&mu_);
  return buffer_.size();
}

}  // namespace lidi::databus
