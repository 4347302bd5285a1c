#include "databus/event.h"

#include <limits>

#include "common/coding.h"

namespace lidi::databus {

void EncodeEvent(const Event& event, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(event.scn));
  PutLengthPrefixed(out, event.source);
  PutLengthPrefixed(out, event.key);
  out->push_back(static_cast<char>(event.op));
  PutZigZag64(out, event.partition);
  out->push_back(event.end_of_txn ? 1 : 0);
  PutLengthPrefixed(out, event.payload);
}

Result<Event> DecodeEvent(Slice* input) {
  Event event;
  uint64_t scn;
  Slice source, key, payload;
  if (!GetVarint64(input, &scn) || !GetLengthPrefixed(input, &source) ||
      !GetLengthPrefixed(input, &key)) {
    return Status::Corruption("truncated event header");
  }
  if (input->empty()) return Status::Corruption("truncated event op");
  const auto op = static_cast<uint8_t>((*input)[0]);
  if (op > static_cast<uint8_t>(Event::Op::kDelete)) {
    return Status::Corruption("event op " + std::to_string(op) +
                              " out of range");
  }
  event.op = static_cast<Event::Op>(op);
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
  event.end_of_txn = (*input)[0] != 0;
  input->RemovePrefix(1);
  if (!GetLengthPrefixed(input, &payload)) {
    return Status::Corruption("truncated event payload");
  }
  event.scn = static_cast<int64_t>(scn);
  event.source = source.ToString();
  event.key = key.ToString();
  event.partition = static_cast<int>(partition);
  event.payload = payload.ToString();
  return event;
}

void EncodeEventList(const std::vector<Event>& events, std::string* out) {
  PutVarint64(out, events.size());
  for (const Event& e : events) EncodeEvent(e, out);
}

Result<std::vector<Event>> DecodeEventList(Slice input) {
  // An encoded event takes at least 7 bytes: scn, source, key, op,
  // partition, txn marker and payload, one byte each when empty.
  constexpr uint64_t kMinEventBytes = 7;
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("truncated event list");
  }
  if (count > input.size() / kMinEventBytes) {
    return Status::Corruption("event list count " + std::to_string(count) +
                              " exceeds its input");
  }
  std::vector<Event> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    auto e = DecodeEvent(&input);
    if (!e.ok()) return e.status();
    out.push_back(std::move(e.value()));
  }
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
