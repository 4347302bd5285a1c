#ifndef LIDI_DATABUS_EVENT_BUFFER_H_
#define LIDI_DATABUS_EVENT_BUFFER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/blocks.h"
#include "common/slice.h"
#include "common/status.h"
#include "databus/event.h"

namespace lidi::databus {

/// The relay's in-memory circular buffer indexed by SCN (paper Section
/// III.C), shared by the Databus relay and, one per partition, by the
/// Espresso relay (IV.B). It holds each event in its wire encoding, the
/// bytes a "databus.read" reply carries, appended into ByteBlocks, plus one
/// index entry per event. It keeps transactions whole: eviction drops the
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

  /// Encodes and appends `events`: whole transactions in SCN order, above
  /// max_scn(). Then evicts as EvictToCapacity does.
  void Append(const std::vector<Event>& events);

  /// Appends one event in its wire encoding: `write` appends it, `size`
  /// bytes, to the string it is passed. Events come in whole
  /// transactions, in SCN order, above max_scn(); after the last one, call
  /// EvictToCapacity. An encoded event is under 4 GiB (a transport frame is
  /// far smaller).
  template <typename Write>
  void AppendEncoded(int64_t scn, int partition, size_t size,
                     const Write& write) {
    index_.push_back(Entry{scn, blocks_.Append(size, write), partition});
    if (scn > max_scn_) max_scn_ = scn;
  }

  /// While more than the capacity is buffered, evicts the oldest
  /// transaction, which may empty the buffer, and frees the blocks no
  /// buffered event is in (an empty buffer keeps at most one block).
  void EvictToCapacity();

  /// Sets the capacity in events, evicting as EvictToCapacity does.
  void SetCapacity(int64_t capacity_events);

  /// NotFound if an SCN above since_scn was evicted (the reader must
  /// bootstrap). Else appends the wire encodings of the events with
  /// scn > since_scn that match the filter, in SCN order: up to max_events,
  /// then the rest of the last transaction taken. The slices are valid until
  /// the next append, EvictToCapacity or SetCapacity.
  Status Scan(int64_t since_scn, int64_t max_events, const Filter& filter,
              std::vector<Slice>* matched) const;

  /// Scan, decoded and copied out.
  Result<std::vector<Event>> Read(int64_t since_scn, int64_t max_events,
                                  const Filter& filter) const;

  /// Highest SCN ever appended, evicted or not (0 before the first).
  int64_t max_scn() const { return max_scn_; }
  /// Oldest buffered SCN (0 when empty).
  int64_t min_scn() const { return index_.empty() ? 0 : index_.front().scn; }
  int64_t size() const { return static_cast<int64_t>(index_.size()); }
  /// Bytes the blocks and the index hold.
  int64_t retained_bytes() const;

 private:
  /// One buffered event: where its encoding lies, and what the scan needs
  /// without decoding it.
  struct Entry {
    int64_t scn;
    ByteBlocks::Span span;
    int32_t partition;
  };

  int64_t capacity_;
  int64_t max_scn_ = 0;
  std::deque<Entry> index_;
  ByteBlocks blocks_;
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_EVENT_BUFFER_H_
