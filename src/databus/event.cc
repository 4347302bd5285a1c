#include "databus/event.h"

#include <limits>

#include "common/coding.h"

namespace lidi::databus {

void EventView::CopyTo(Event* event) const {
  event->scn = scn;
  event->source.assign(source.data(), source.size());
  event->key.assign(key.data(), key.size());
  event->op = op;
  event->partition = partition;
  event->end_of_txn = end_of_txn;
  event->payload.assign(payload.data(), payload.size());
}

size_t EncodedEventSize(const EventView& head, size_t payload_size) {
  return VarintLength(static_cast<uint64_t>(head.scn)) +
         VarintLength(head.source.size()) + head.source.size() +
         VarintLength(head.key.size()) + head.key.size() + 1 +
         ZigZagLength(head.partition) + 1 +
         VarintLength(payload_size) + payload_size;
}

void EncodeEventHead(const EventView& head, size_t payload_size,
                     std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(head.scn));
  PutLengthPrefixed(out, head.source);
  PutLengthPrefixed(out, head.key);
  out->push_back(static_cast<char>(head.op));
  PutZigZag64(out, head.partition);
  out->push_back(head.end_of_txn ? 1 : 0);
  PutVarint64(out, payload_size);
}

void EncodeEvent(const Event& event, std::string* out) {
  const EventView head{.scn = event.scn,
                       .source = event.source,
                       .key = event.key,
                       .op = event.op,
                       .partition = event.partition,
                       .end_of_txn = event.end_of_txn};
  EncodeEventHead(head, event.payload.size(), out);
  out->append(event.payload);
}

Status DecodeEventView(Slice* input, EventView* event) {
  const Slice start = *input;
  uint64_t scn;
  if (!GetVarint64(input, &scn) || !GetLengthPrefixed(input, &event->source) ||
      !GetLengthPrefixed(input, &event->key)) {
    return Status::Corruption("truncated event header");
  }
  if (scn > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::Corruption("event scn " + std::to_string(scn) +
                              " out of range");
  }
  if (input->empty()) return Status::Corruption("truncated event op");
  const auto op = static_cast<uint8_t>((*input)[0]);
  if (op > static_cast<uint8_t>(Event::Op::kDelete)) {
    return Status::Corruption("event op " + std::to_string(op) +
                              " out of range");
  }
  input->RemovePrefix(1);
  int64_t partition;
  if (!GetZigZag64(input, &partition)) {
    return Status::Corruption("truncated event partition");
  }
  if (partition < std::numeric_limits<int>::min() ||
      partition > std::numeric_limits<int>::max()) {
    return Status::Corruption("event partition " + std::to_string(partition) +
                              " out of range");
  }
  if (input->empty()) return Status::Corruption("truncated event txn marker");
  event->end_of_txn = (*input)[0] != 0;
  input->RemovePrefix(1);
  if (!GetLengthPrefixed(input, &event->payload)) {
    return Status::Corruption("truncated event payload");
  }
  event->scn = static_cast<int64_t>(scn);
  event->op = static_cast<Event::Op>(op);
  event->partition = static_cast<int>(partition);
  event->encoded = Slice(start.data(), start.size() - input->size());
  return Status::OK();
}

Result<Event> DecodeEvent(Slice* input) {
  EventView view;
  Status s = DecodeEventView(input, &view);
  if (!s.ok()) return s;
  Event event;
  view.CopyTo(&event);
  return event;
}

void EncodeEventList(const std::vector<Event>& events, std::string* out) {
  PutVarint64(out, events.size());
  for (const Event& e : events) EncodeEvent(e, out);
}

Status DecodeEventViews(Slice input, std::vector<EventView>* events) {
  // An encoded event takes at least 7 bytes: scn, source, key, op,
  // partition, txn marker and payload, one byte each when empty.
  constexpr uint64_t kMinEventBytes = 7;
  events->clear();
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("truncated event list");
  }
  if (count > input.size() / kMinEventBytes) {
    return Status::Corruption("event list count " + std::to_string(count) +
                              " exceeds its input");
  }
  events->resize(count);
  for (EventView& event : *events) {
    Status s = DecodeEventView(&input, &event);
    if (!s.ok()) {
      events->clear();
      return s;
    }
  }
  return Status::OK();
}

Result<std::vector<Event>> DecodeEventList(Slice input) {
  std::vector<EventView> views;
  Status s = DecodeEventViews(input, &views);
  if (!s.ok()) return s;
  std::vector<Event> out(views.size());
  for (size_t i = 0; i < views.size(); ++i) views[i].CopyTo(&out[i]);
  return out;
}

void Filter::EncodeTo(std::string* out) const {
  PutVarint64(out, sources.size());
  for (const std::string& s : sources) PutLengthPrefixed(out, s);
  PutVarint64(out, static_cast<uint64_t>(mod_base));
  PutVarint64(out, mod_residues.size());
  for (int r : mod_residues) PutVarint64(out, static_cast<uint64_t>(r));
}

Result<Filter> Filter::DecodeFrom(Slice* input) {
  Filter f;
  uint64_t source_count;
  if (!GetVarint64(input, &source_count)) {
    return Status::Corruption("truncated filter");
  }
  for (uint64_t i = 0; i < source_count; ++i) {
    Slice s;
    if (!GetLengthPrefixed(input, &s)) {
      return Status::Corruption("truncated filter source");
    }
    f.sources.insert(s.ToString());
  }
  // mod_base and the residues land in int; a wider value must not wrap to
  // 0 or below, which would switch the filter off.
  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  uint64_t mod_base, residue_count;
  if (!GetVarint64(input, &mod_base) || !GetVarint64(input, &residue_count)) {
    return Status::Corruption("truncated filter mod");
  }
  if (mod_base > kIntMax) {
    return Status::Corruption("filter mod_base " + std::to_string(mod_base) +
                              " out of range");
  }
  f.mod_base = static_cast<int>(mod_base);
  for (uint64_t i = 0; i < residue_count; ++i) {
    uint64_t r;
    if (!GetVarint64(input, &r)) {
      return Status::Corruption("truncated filter residue");
    }
    if (r > kIntMax) {
      return Status::Corruption("filter residue " + std::to_string(r) +
                                " out of range");
    }
    f.mod_residues.insert(static_cast<int>(r));
  }
  return f;
}

}  // namespace lidi::databus
