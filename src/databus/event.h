#ifndef LIDI_DATABUS_EVENT_H_
#define LIDI_DATABUS_EVENT_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace lidi::databus {

/// A Databus change-data-capture event (paper Section III.C): sequence
/// number in source-database commit order, metadata identifying the change,
/// and the serialized payload (the post-image row; Avro-encoded in
/// production, lidi ships sqlstore's portable row encoding — both are
/// source-independent binary formats).
struct Event {
  int64_t scn = 0;
  std::string source;  // table / logical source name
  std::string key;     // primary key of the changed row
  enum class Op : uint8_t { kUpsert = 0, kDelete = 1 } op = Op::kUpsert;
  int partition = -1;
  /// True on the last event of its transaction — the transaction envelope
  /// marker consumers use to respect atomic boundaries.
  bool end_of_txn = true;
  std::string payload;

  friend bool operator==(const Event& a, const Event& b) {
    return a.scn == b.scn && a.source == b.source && a.key == b.key &&
           a.op == b.op && a.partition == b.partition &&
           a.end_of_txn == b.end_of_txn && a.payload == b.payload;
  }
};

/// An event decoded in place: its strings are slices into the bytes it was
/// decoded from, valid only while those bytes are.
struct EventView {
  int64_t scn = 0;
  Slice source{};
  Slice key{};
  Event::Op op = Event::Op::kUpsert;
  int partition = -1;
  bool end_of_txn = true;
  Slice payload{};
  /// The whole event as the wire carries it.
  Slice encoded{};

  /// Copies the event into `*event`, whose strings keep their capacity.
  void CopyTo(Event* event) const;
};

/// Wire encoding of one event: scn varint, source and key length-prefixed,
/// op byte, partition zigzag varint, end-of-txn byte, payload
/// length-prefixed.
void EncodeEvent(const Event& event, std::string* out);

/// For an event whose payload the caller writes itself: the size of its
/// encoding with a payload of `payload_size` bytes, and the encoding up to
/// the payload bytes, which the caller appends next. `head.payload` is not
/// read.
size_t EncodedEventSize(const EventView& head, size_t payload_size);
void EncodeEventHead(const EventView& head, size_t payload_size,
                     std::string* out);

/// Decodes one event in place, or Corruption if it is truncated or a field
/// is out of range (an SCN above int64_t, an unknown op, a partition outside
/// int).
Status DecodeEventView(Slice* input, EventView* event);
/// DecodeEventView, copied out.
Result<Event> DecodeEvent(Slice* input);

/// Wire encoding of an event list: count varint, then the events.
void EncodeEventList(const std::vector<Event>& events, std::string* out);
/// Decodes a whole event list in place into `*events` (cleared first, its
/// capacity kept), or Corruption if any part of it is bad, leaving
/// `*events` empty.
Status DecodeEventViews(Slice input, std::vector<EventView>* events);
/// DecodeEventViews, copied out, for callers that keep the events.
Result<std::vector<Event>> DecodeEventList(Slice input);

/// Server-side filter pushed down to relays and bootstrap servers (Section
/// III.C: "Server-side filtering for support of multiple partitioning
/// schemes"). Empty sets / zero mod = no constraint.
struct Filter {
  std::set<std::string, std::less<>> sources;
  /// Mod-partitioning: deliver events where partition % mod_base is in
  /// mod_residues. mod_base == 0 disables.
  int mod_base = 0;
  std::set<int> mod_residues;

  bool Matches(Slice source, int partition) const {
    if (!sources.empty() && sources.count(source.view()) == 0) return false;
    if (mod_base > 0) {
      const int residue = partition >= 0 ? partition % mod_base : 0;
      if (mod_residues.count(residue) == 0) return false;
    }
    return true;
  }
  bool Matches(const Event& event) const {
    return Matches(event.source, event.partition);
  }

  void EncodeTo(std::string* out) const;
  static Result<Filter> DecodeFrom(Slice* input);
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_EVENT_H_
