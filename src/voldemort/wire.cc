#include "voldemort/wire.h"

namespace lidi::voldemort {

void Transform::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type));
  PutZigZag64(out, offset);
  PutZigZag64(out, count);
  PutLengthPrefixed(out, item);
}

Result<Transform> Transform::DecodeFrom(Slice* input) {
  if (input->empty()) return Status::Corruption("truncated transform");
  Transform t;
  t.type = static_cast<Type>((*input)[0]);
  input->RemovePrefix(1);
  Slice item;
  if (!GetZigZag64(input, &t.offset) || !GetZigZag64(input, &t.count) ||
      !GetLengthPrefixed(input, &item)) {
    return Status::Corruption("truncated transform fields");
  }
  t.item = item.ToString();
  return t;
}

void EncodeStringList(const std::vector<std::string>& items, std::string* out) {
  PutVarint64(out, items.size());
  for (const std::string& item : items) PutLengthPrefixed(out, item);
}

Result<std::vector<std::string>> DecodeStringList(Slice input) {
  uint64_t count;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("truncated string list");
  }
  // Each item takes at least its one-byte length prefix.
  if (count > input.size()) {
    return Status::Corruption("string list count " + std::to_string(count) +
                              " exceeds its input");
  }
  std::vector<std::string> items;
  items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Slice item;
    if (!GetLengthPrefixed(&input, &item)) {
      return Status::Corruption("truncated string list item");
    }
    items.push_back(item.ToString());
  }
  return items;
}

Result<std::string> ApplyTransform(const Transform& t, Slice list_value) {
  std::vector<std::string> items;
  if (!list_value.empty()) {
    auto decoded = DecodeStringList(list_value);
    if (!decoded.ok()) return decoded.status();
    items = std::move(decoded.value());
  }
  switch (t.type) {
    case Transform::Type::kNone: {
      return list_value.ToString();
    }
    case Transform::Type::kSublist: {
      std::vector<std::string> sub;
      const int64_t size = static_cast<int64_t>(items.size());
      for (int64_t i = t.offset; i < t.offset + t.count && i < size; ++i) {
        if (i >= 0) sub.push_back(items[i]);
      }
      std::string out;
      EncodeStringList(sub, &out);
      return out;
    }
    case Transform::Type::kAppend: {
      items.push_back(t.item);
      std::string out;
      EncodeStringList(items, &out);
      return out;
    }
  }
  return Status::InvalidArgument("unknown transform type");
}

void EncodeGetRequest(Slice store, Slice key, std::string* out) {
  PutLengthPrefixed(out, store);
  PutLengthPrefixed(out, key);
}

Status DecodeGetRequest(Slice input, std::string* store, std::string* key) {
  Slice s, k;
  if (!GetLengthPrefixed(&input, &s) || !GetLengthPrefixed(&input, &k)) {
    return Status::Corruption("truncated get request");
  }
  *store = s.ToString();
  *key = k.ToString();
  return Status::OK();
}

void EncodePutRequest(Slice store, Slice key, const Versioned& versioned,
                      const Transform& transform, std::string* out) {
  PutLengthPrefixed(out, store);
  PutLengthPrefixed(out, key);
  versioned.version.EncodeTo(out);
  PutLengthPrefixed(out, versioned.value);
  transform.EncodeTo(out);
}

Status DecodePutRequest(Slice input, std::string* store, std::string* key,
                        Versioned* versioned, Transform* transform) {
  Slice s, k, value;
  if (!GetLengthPrefixed(&input, &s) || !GetLengthPrefixed(&input, &k)) {
    return Status::Corruption("truncated put request");
  }
  auto clock = VectorClock::DecodeFrom(&input);
  if (!clock.ok()) return clock.status();
  if (!GetLengthPrefixed(&input, &value)) {
    return Status::Corruption("truncated put value");
  }
  auto t = Transform::DecodeFrom(&input);
  if (!t.ok()) return t.status();
  *store = s.ToString();
  *key = k.ToString();
  versioned->version = std::move(clock.value());
  versioned->value = value.ToString();
  *transform = std::move(t.value());
  return Status::OK();
}

void EncodeDeleteRequest(Slice store, Slice key, const VectorClock& clock,
                         std::string* out) {
  PutLengthPrefixed(out, store);
  PutLengthPrefixed(out, key);
  clock.EncodeTo(out);
}

Status DecodeDeleteRequest(Slice input, std::string* store, std::string* key,
                           VectorClock* clock) {
  Slice s, k;
  if (!GetLengthPrefixed(&input, &s) || !GetLengthPrefixed(&input, &k)) {
    return Status::Corruption("truncated delete request");
  }
  auto c = VectorClock::DecodeFrom(&input);
  if (!c.ok()) return c.status();
  *store = s.ToString();
  *key = k.ToString();
  *clock = std::move(c.value());
  return Status::OK();
}

void EncodeSlopRequest(int destination_node, Slice put_request,
                       std::string* out) {
  PutZigZag64(out, destination_node);
  PutLengthPrefixed(out, put_request);
}

Status DecodeSlopRequest(Slice input, int* destination_node,
                         std::string* put_request) {
  int64_t dest;
  Slice req;
  if (!GetZigZag64(&input, &dest) || !GetLengthPrefixed(&input, &req)) {
    return Status::Corruption("truncated slop request");
  }
  *destination_node = static_cast<int>(dest);
  *put_request = req.ToString();
  return Status::OK();
}

}  // namespace lidi::voldemort
