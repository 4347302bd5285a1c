#ifndef LIDI_DATABUS_EVENT_BUFFER_H_
#define LIDI_DATABUS_EVENT_BUFFER_H_

#include <deque>
#include <limits>
#include <vector>

#include "common/status.h"
#include "databus/event.h"

namespace lidi::databus {

/// The relay's in-memory circular buffer indexed by SCN (paper Section
/// III.C), shared by the Databus relay and, one per partition, by the
/// Espresso relay (IV.B). It keeps transactions whole: eviction drops the
/// oldest whole transaction, and a scan page ends only at an SCN boundary,
/// so a reader that resumes from the last SCN it was handed never skips the
/// rest of a transaction.
///
/// Not synchronized: the owning relay holds its lock around every call.
class EventBuffer {
 public:
  explicit EventBuffer(
      int64_t capacity_events = std::numeric_limits<int64_t>::max())
      : capacity_(capacity_events) {}

  /// Appends `events`: whole transactions in SCN order, above max_scn().
  /// Then, while more than the capacity is buffered, evicts the oldest
  /// transaction, which may empty the buffer.
  void Append(std::vector<Event> events);

  /// Sets the capacity in events, evicting as Append does.
  void SetCapacity(int64_t capacity_events);

  /// NotFound if an SCN above since_scn was evicted (the reader must
  /// bootstrap). Else appends the events with scn > since_scn that match
  /// the filter, in SCN order: up to max_events, then the rest of the last
  /// transaction taken. The pointers are valid until the next Append or
  /// SetCapacity.
  Status Scan(int64_t since_scn, int64_t max_events, const Filter& filter,
              std::vector<const Event*>* matched) const;

  /// Scan, copied out.
  Result<std::vector<Event>> Read(int64_t since_scn, int64_t max_events,
                                  const Filter& filter) const;

  /// Highest SCN ever appended, evicted or not (0 before the first).
  int64_t max_scn() const { return max_scn_; }
  /// Oldest buffered SCN (0 when empty).
  int64_t min_scn() const {
    return events_.empty() ? 0 : events_.front().scn;
  }
  int64_t size() const { return static_cast<int64_t>(events_.size()); }

 private:
  void Evict();

  int64_t capacity_;
  int64_t max_scn_ = 0;
  std::deque<Event> events_;
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_EVENT_BUFFER_H_
