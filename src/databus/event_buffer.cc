#include "databus/event_buffer.h"

#include <algorithm>

namespace lidi::databus {

void EventBuffer::Append(const std::vector<Event>& events) {
  for (const Event& event : events) {
    const EventView head{.scn = event.scn,
                         .source = event.source,
                         .key = event.key,
                         .op = event.op,
                         .partition = event.partition,
                         .end_of_txn = event.end_of_txn};
    AppendEncoded(event.scn, event.partition,
                  EncodedEventSize(head, event.payload.size()),
                  [&event](std::string* out) { EncodeEvent(event, out); });
  }
  EvictToCapacity();
}

void EventBuffer::SetCapacity(int64_t capacity_events) {
  capacity_ = capacity_events;
  EvictToCapacity();
}

void EventBuffer::EvictToCapacity() {
  // Circular-buffer semantics, one whole transaction at a time: a reader
  // never finds the tail of a transaction whose head is gone.
  if (size() <= capacity_) return;
  while (!index_.empty() && size() > capacity_) {
    const int64_t scn = index_.front().scn;
    while (!index_.empty() && index_.front().scn == scn) index_.pop_front();
  }
  // Blocks before the oldest buffered event hold only evicted ones.
  if (index_.empty()) {
    blocks_.Clear();
  } else {
    blocks_.DropBefore(index_.front().span);
  }
}

Status EventBuffer::Scan(int64_t since_scn, int64_t max_events,
                         const Filter& filter,
                         std::vector<Slice>* matched) const {
  // Every SCN below the oldest buffered one was evicted; once eviction has
  // emptied the buffer, every SCN up to max_scn_ was.
  const int64_t oldest = index_.empty() ? max_scn_ + 1 : index_.front().scn;
  if (since_scn + 1 < oldest) {
    // The client must fall back to a bootstrap server (long look-back
    // query).
    return Status::NotFound("scn " + std::to_string(since_scn) +
                            " evicted from relay buffer (buffer starts at scn " +
                            std::to_string(oldest) + ")");
  }
  // Binary search to the first event with scn > since_scn: the index is in
  // scn order (this is the relay's "index structure to efficiently serve
  // events from a given sequence number").
  auto it = std::lower_bound(
      index_.begin(), index_.end(), since_scn + 1,
      [](const Entry& e, int64_t scn) { return e.scn < scn; });
  int64_t taken = 0;
  int64_t last_scn = 0;
  for (; it != index_.end(); ++it) {
    // The reader resumes after the last SCN it is handed, so a page ends
    // only where a transaction does.
    if (taken >= max_events && (taken == 0 || it->scn != last_scn)) break;
    const Slice event = blocks_.Read(it->span);
    Slice source;
    if (!filter.sources.empty()) {
      EventView view;
      Slice input = event;
      Status s = DecodeEventView(&input, &view);
      if (!s.ok()) return s;
      source = view.source;
    }
    if (!filter.Matches(source, it->partition)) continue;
    matched->push_back(event);
    last_scn = it->scn;
    ++taken;
  }
  return Status::OK();
}

Result<std::vector<Event>> EventBuffer::Read(int64_t since_scn,
                                             int64_t max_events,
                                             const Filter& filter) const {
  std::vector<Slice> matched;
  Status s = Scan(since_scn, max_events, filter, &matched);
  if (!s.ok()) return s;
  std::vector<Event> out;
  out.reserve(matched.size());
  for (Slice bytes : matched) {
    auto event = DecodeEvent(&bytes);
    if (!event.ok()) return event.status();
    out.push_back(std::move(event.value()));
  }
  return out;
}

int64_t EventBuffer::retained_bytes() const {
  return static_cast<int64_t>(index_.size() * sizeof(Entry)) +
         blocks_.retained_bytes();
}

}  // namespace lidi::databus
