#include "databus/relay.h"

#include <algorithm>
#include <limits>

#include "common/coding.h"

namespace lidi::databus {

namespace {

/// Appends one event per change of `txn`, each encoded straight into the
/// buffer: its head, then the change's row bytes as the binlog logged them
/// (no payload for a delete).
void AppendTransactionEvents(const sqlstore::RecordView& txn,
                             EventBuffer* buffer) {
  for (size_t i = 0; i < txn.changes.size(); ++i) {
    const sqlstore::ChangeView& change = txn.changes[i];
    const bool is_delete = change.op == sqlstore::Change::Op::kDelete;
    const EventView head{
        .scn = txn.scn,
        .source = change.table,
        .key = change.primary_key,
        .op = is_delete ? Event::Op::kDelete : Event::Op::kUpsert,
        .partition = change.partition,
        .end_of_txn = i + 1 == txn.changes.size()};
    const Slice payload = is_delete ? Slice() : change.row;
    buffer->AppendEncoded(
        txn.scn, change.partition, EncodedEventSize(head, payload.size()),
        [&](std::string* out) {
          EncodeEventHead(head, payload.size(), out);
          out->append(payload.data(), payload.size());
        });
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
    // The buffer holds the reply's bytes already: the count, then each
    // matched event copied as is. The lock keeps eviction off the matched
    // bytes until they are copied.
    MutexLock lock(&mu_);
    std::vector<Slice> matched;
    s = buffer_.Scan(since_scn, max_events, filter, &matched);
    if (!s.ok()) return Result<std::string>(s);
    events_served_->Add(static_cast<int64_t>(matched.size()));
    size_t bytes = VarintLength(matched.size());
    for (Slice event : matched) bytes += event.size();
    std::string out;
    out.reserve(bytes);
    PutVarint64(&out, matched.size());
    for (Slice event : matched) out.append(event.data(), event.size());
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

  int64_t count = 0;
  if (source_ != nullptr) {
    // The logged records are read in place: ReadAfter lends their bytes,
    // and each is decoded and its changes encoded into the buffer under mu_
    // alone. A record that fails to decode stops the poll before any of its
    // events are buffered, so the buffer keeps transactions whole.
    const std::vector<Slice> records =
        source_->binlog().ReadAfter(since, poll_batch);
    if (records.empty()) return int64_t{0};
    sqlstore::RecordView txn;
    Status s;
    MutexLock lock(&mu_);
    for (Slice record : records) {
      s = sqlstore::DecodeRecordView(record, &txn);
      if (!s.ok()) break;
      AppendTransactionEvents(txn, &buffer_);
      count += static_cast<int64_t>(txn.changes.size());
    }
    buffer_.EvictToCapacity();
    if (!s.ok()) {
      if (count > 0) events_ingested_->Add(count);
      span.set_outcome(s);
      return s;
    }
  } else if (!upstream_.empty()) {
    span.set_peer(upstream_);
    std::string request;
    EncodeReadRequest(since, poll_batch * 4, Filter{}, &request);
    auto reply = network_->CallPayload(name_, upstream_, "databus.read",
                                       request,
                                       net::CallOptions{&span.context()});
    if (!reply.ok()) {
      span.set_outcome(reply.status());
      return reply.status();
    }
    // Validated whole before any of it is buffered; each event's bytes are
    // then buffered as the upstream relay sent them.
    std::vector<EventView> events;
    Status s = DecodeEventViews(reply.value().slice(), &events);
    if (!s.ok()) {
      span.set_outcome(s);
      return s;
    }
    if (events.empty()) return int64_t{0};
    MutexLock lock(&mu_);
    for (const EventView& event : events) {
      buffer_.AppendEncoded(event.scn, event.partition, event.encoded.size(),
                            [&event](std::string* out) {
                              out->append(event.encoded.data(),
                                          event.encoded.size());
                            });
    }
    buffer_.EvictToCapacity();
    count = static_cast<int64_t>(events.size());
  }
  if (count > 0) events_ingested_->Add(count);
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
