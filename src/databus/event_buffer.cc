#include "databus/event_buffer.h"

#include <algorithm>
#include <string>

namespace lidi::databus {

void EventBuffer::Append(std::vector<Event> events) {
  for (Event& event : events) {
    max_scn_ = std::max(max_scn_, event.scn);
    events_.push_back(std::move(event));
  }
  Evict();
}

void EventBuffer::SetCapacity(int64_t capacity_events) {
  capacity_ = capacity_events;
  Evict();
}

void EventBuffer::Evict() {
  // Circular-buffer semantics, one whole transaction at a time: a reader
  // never finds the tail of a transaction whose head is gone.
  while (size() > capacity_) {
    const int64_t scn = events_.front().scn;
    while (!events_.empty() && events_.front().scn == scn) {
      events_.pop_front();
    }
  }
}

Status EventBuffer::Scan(int64_t since_scn, int64_t max_events,
                         const Filter& filter,
                         std::vector<const Event*>* matched) const {
  // Every SCN below the oldest buffered one was evicted; once eviction has
  // emptied the buffer, every SCN up to max_scn_ was.
  const int64_t oldest = events_.empty() ? max_scn_ + 1 : events_.front().scn;
  if (since_scn + 1 < oldest) {
    // The client must fall back to a bootstrap server (long look-back
    // query).
    return Status::NotFound("scn " + std::to_string(since_scn) +
                            " evicted from relay buffer (buffer starts at scn " +
                            std::to_string(oldest) + ")");
  }
  // Binary search to the first event with scn > since_scn: the buffer is in
  // scn order (this is the relay's "index structure to efficiently serve
  // events from a given sequence number").
  auto it = std::lower_bound(
      events_.begin(), events_.end(), since_scn + 1,
      [](const Event& e, int64_t scn) { return e.scn < scn; });
  int64_t taken = 0;
  for (; it != events_.end(); ++it) {
    // The reader resumes after the last SCN it is handed, so a page ends
    // only where a transaction does.
    if (taken >= max_events &&
        (taken == 0 || it->scn != matched->back()->scn)) {
      break;
    }
    if (!filter.Matches(*it)) continue;
    matched->push_back(&*it);
    ++taken;
  }
  return Status::OK();
}

Result<std::vector<Event>> EventBuffer::Read(int64_t since_scn,
                                             int64_t max_events,
                                             const Filter& filter) const {
  std::vector<const Event*> matched;
  Status s = Scan(since_scn, max_events, filter, &matched);
  if (!s.ok()) return s;
  std::vector<Event> out;
  out.reserve(matched.size());
  for (const Event* event : matched) out.push_back(*event);
  return out;
}

}  // namespace lidi::databus
