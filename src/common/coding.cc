#include "common/coding.h"

namespace lidi {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 8);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

}  // namespace

void PutZigZag64(std::string* dst, int64_t v) { PutVarint64(dst, ZigZag(v)); }

void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

int VarintLength(uint64_t v) {
  int length = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++length;
  }
  return length;
}

int ZigZagLength(int64_t v) { return VarintLength(ZigZag(v)); }

bool GetFixed32(Slice* input, uint32_t* v) {
  if (input->size() < 4) return false;
  *v = DecodeFixed32(input->data());
  input->RemovePrefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* v) {
  if (input->size() < 8) return false;
  *v = DecodeFixed64(input->data());
  input->RemovePrefix(8);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    const uint8_t byte = static_cast<uint8_t>((*input)[0]);
    input->RemovePrefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetZigZag64(Slice* input, int64_t* v) {
  uint64_t encoded;
  if (!GetVarint64(input, &encoded)) return false;
  *v = static_cast<int64_t>(encoded >> 1) ^ -static_cast<int64_t>(encoded & 1);
  return true;
}

bool GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *value = Slice(input->data(), len);
  input->RemovePrefix(len);
  return true;
}

void EncodeFixed32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

uint32_t DecodeFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t DecodeFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace lidi
